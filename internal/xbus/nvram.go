package xbus

import (
	"errors"
	"fmt"

	"raidii/internal/sim"
)

// ErrNVRAMFull is returned when a staged record does not fit in the
// battery-backed region.  Callers degrade to the synchronous write path
// until seals release staged records.
var ErrNVRAMFull = errors.New("xbus: nvram full")

// NVRAM is a battery-backed slice of the board's DRAM used as a
// write-ahead staging log.  RAID-II's board memory was ordinary DRAM; the
// model follows the paper's file-server lineage (Baker et al.'s NVRAM
// write caching on Sprite) by letting a configured fraction of the 32 MB
// hold state that survives a server crash.  The region is carved out of
// the transfer-buffer pool with the same accounting as a cache
// reservation, so NVRAM, cache lines and transfer buffers share the board
// honestly.
//
// NVRAM models capacity and timing only; the staged record contents live
// in the server's log structure, which consults this region for
// admission.  Contents survive a crash by construction — whatever the
// owner staged and has not released is still accounted here afterwards.
type NVRAM struct {
	board *Board
	size  int
	used  int

	appends   uint64
	appended  uint64
	rejected  uint64
	releases  uint64
	highWater int
}

// ReserveNVRAM permanently carves n bytes of battery-backed staging
// memory out of the board's DRAM pool.  The same transfer-buffer floor
// applies as for cache reservations: the board refuses a region that
// would starve the data path.
func (b *Board) ReserveNVRAM(n int) (*NVRAM, error) {
	if n <= 0 {
		return nil, fmt.Errorf("xbus: nvram reservation of %d bytes", n)
	}
	if err := b.ReserveMemory(n); err != nil {
		return nil, fmt.Errorf("xbus: nvram: %w", err)
	}
	return &NVRAM{board: b, size: n}, nil
}

// Stage admits n bytes into the region, charging the memory-system time
// for landing them, or returns ErrNVRAMFull without charging anything.  The
// bytes are reserved before the transfer waits, so concurrent stagers never
// overshoot the region between them.
func (nv *NVRAM) Stage(p *sim.Proc, n int) error {
	if nv.used+n > nv.size {
		nv.rejected++
		return ErrNVRAMFull
	}
	nv.used += n
	nv.appends++
	nv.appended += uint64(n)
	nv.highWater = max(nv.highWater, nv.used)
	nv.board.Memory.Transfer(p, n)
	return nil
}

// Release returns n staged bytes to the region after their records have
// been made durable in the log proper.
func (nv *NVRAM) Release(n int) {
	if n > nv.used {
		//lint:allow simpanic releasing more than was staged means the owner's accounting is corrupt
		panic("xbus: nvram release exceeds staged bytes")
	}
	nv.used -= n
	nv.releases++
}

// Capacity returns the configured region size in bytes.
func (nv *NVRAM) Capacity() int { return nv.size }

// Used returns the bytes currently staged.
func (nv *NVRAM) Used() int { return nv.used }

// Stats is a snapshot of the region's activity counters.
type NVRAMStats struct {
	Capacity      int
	Used          int
	HighWater     int
	Appends       uint64
	AppendedBytes uint64
	Rejected      uint64 // appends refused with ErrNVRAMFull
	Releases      uint64
}

// Stats returns the region's counters.
func (nv *NVRAM) Stats() NVRAMStats {
	return NVRAMStats{
		Capacity:      nv.size,
		Used:          nv.used,
		HighWater:     nv.highWater,
		Appends:       nv.appends,
		AppendedBytes: nv.appended,
		Rejected:      nv.rejected,
		Releases:      nv.releases,
	}
}
