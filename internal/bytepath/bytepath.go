// Package bytepath holds what every layer that moves user bytes shares: the
// word-wide XOR kernel behind the parity engines, the helper through which a
// layer reads from the one below it into a buffer it was handed, and the
// free list the layers recycle their working buffers through.
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

// Device is the sector-addressable block device every storage boundary
// shares; raid.Dev, cache.Backing, lfs.Device and ufs.Device are aliases
// of it, each documented with what an error means at that boundary.  Read
// returns n sectors at lba; Write stores a whole number of sectors, copies
// what it keeps and holds no reference to data once it returns.
type Device interface {
	Read(p *sim.Proc, lba int64, n int) ([]byte, error)
	Write(p *sim.Proc, lba int64, data []byte) error
	Sectors() int64
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
func ReadInto(dev Device, p *sim.Proc, lba int64, dst []byte) error {
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

// FreeList is a bounded stack of byte buffers that a layer recycles instead
// of allocating one per operation.  Put keeps a buffer its owner is done
// with, Get hands the most recently kept one out again, at the length asked
// for and possibly a larger capacity.  The engine runs one process at a
// time, so there is no lock; the bound is fixed where the list is made, and
// a burst beyond it goes back to the collector instead of staying pinned.
// The zero FreeList keeps nothing.
//
// A buffer from Get holds arbitrary bytes: its user overwrites or clears
// every byte before it reads it.  The users and their bounds:
//   - the array's column scratch: colFreeStripes (8) stripes of columns,
//     one per device; a cluster store's files share their first file's;
//   - the file system's segment images: its image pool (Config.Images);
//   - the file system's buffers for read runs that do not land straight in
//     the result: as many as its image pool;
//   - a board's read-stream buffers, one list per size class of whole
//     pieces: pipelineDepth each (server/stream.go).
//
// Recycling a buffer that was handed to a device's Write is safe because of
// the device contract (DESIGN.md §17): a device copies what it stores and
// keeps no reference once Write returns.
type FreeList struct {
	max  int
	bufs [][]byte
}

// NewFreeList returns an empty list that keeps at most max buffers.
func NewFreeList(max int) FreeList { return FreeList{max: max} }

// Get returns a buffer of n bytes: the most recently Put one, holding
// whatever its last owner left in it, if its capacity is large enough (a
// smaller one is dropped), and a new zeroed one otherwise.
func (f *FreeList) Get(n int) []byte {
	if b := f.Take(); b != nil && cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// Take hands out the most recently Put buffer at the length it was Put
// with, or nil when the list is empty.  An owner that Puts a buffer cut to
// the part it wrote learns from Take how far the old bytes reach.
func (f *FreeList) Take() []byte {
	k := len(f.bufs)
	if k == 0 {
		return nil
	}
	b := f.bufs[k-1]
	f.bufs[k-1] = nil
	f.bufs = f.bufs[:k-1]
	return b
}

// Put keeps b for a later Get and reports true, or drops it when the list
// is full.  The caller must hold no other reference to a buffer it kept.
func (f *FreeList) Put(b []byte) bool {
	if len(f.bufs) >= f.max {
		return false
	}
	f.bufs = append(f.bufs, b)
	return true
}

// Len reports how many buffers the list holds.
func (f *FreeList) Len() int { return len(f.bufs) }
