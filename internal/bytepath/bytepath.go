// Package bytepath holds what every layer that moves user bytes shares: the
// word-wide XOR kernel behind the parity engines, and the helper through
// which a layer reads from the one below it into a buffer it was handed.
//
// Ownership rule (DESIGN.md §17): the destination of a ReadInto belongs to
// the caller.  The layer fills it before returning and keeps no reference
// to it; whatever a layer retains (cache lines, staged log blocks, the
// disk's pages) is a private copy.
package bytepath

import (
	"crypto/subtle"

	"raidii/internal/sim"
)

// XOR accumulates src into dst (dst[i] ^= src[i]) a machine word or more
// at a time.  The slices must be the same length and either the same
// memory or disjoint.
func XOR(dst, src []byte) {
	if len(dst) != len(src) {
		//lint:allow simpanic stripe geometry guarantees equal-length columns; unequal lengths mean a corrupted extent computation
		panic("bytepath: XOR length mismatch")
	}
	subtle.XORBytes(dst, dst, src)
}

// Reader is the read side of the block-device shape the raid, cache and
// lfs boundaries share (raid.Dev, cache.Backing, lfs.Device).
type Reader interface {
	Read(p *sim.Proc, lba int64, n int) ([]byte, error)
	SectorSize() int
}

// readerInto is the destination-passing read a device may also offer.
type readerInto interface {
	ReadInto(p *sim.Proc, lba int64, dst []byte) error
}

// ReadInto reads len(dst) bytes (a whole number of sectors) at lba from dev
// into dst: straight into it when dev implements
// ReadInto(p, lba, dst) error, through Read and one copy otherwise — the
// way io.Copy discovers io.WriterTo.  A shim that embeds the four-method
// device interface and overrides Read (a counter, a fault injector) has no
// ReadInto to discover, so it keeps seeing every read.
func ReadInto(dev Reader, p *sim.Proc, lba int64, dst []byte) error {
	if ri, ok := dev.(readerInto); ok {
		return ri.ReadInto(p, lba, dst)
	}
	data, err := dev.Read(p, lba, len(dst)/dev.SectorSize())
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}
