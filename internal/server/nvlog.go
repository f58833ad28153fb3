package server

import (
	"errors"
	"fmt"

	"raidii/internal/lfs"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/xbus"
)

// nvlog is the NVRAM write-ahead staging log of one board.  A small
// synchronous write stages its record in the battery-backed region, writes
// it through LFS into the open segment, commits the dirty inodes there
// without sealing, and acknowledges: the record is durable in the region and
// readable in the file system at once.  It keeps its region bytes until the
// seal that carries it, and every earlier one, has reached the device — the
// file system tells the log as each seal completes — so a durable write
// costs no partial segment.  After a crash every record still in the region
// is replayed at mount.  Records are full-content overwrites keyed by
// (inode, offset), so replaying one that already reached the log rewrites
// identical bytes: replay is idempotent by construction.
type nvlog struct {
	b  *Board
	nv *xbus.NVRAM

	// The staged records, oldest first, and their bytes in the same order.
	// The arena has the region's capacity, and nv.Stage never admits more,
	// so staging does not allocate.  released counts the records ever
	// released, so record id is at recs[id-released].
	recs     []nvRecord
	arena    []byte
	released uint64

	writes  uint64 // started write-throughs (the crash ordinal space)
	crashAt uint64 // crash mid this write-through ordinal (1-based); 0 = never

	stats NVRAMLogStats
}

// nvRecord is one staged small write: n bytes at arena[start:], carried by
// segment seq once its write-through has committed.
type nvRecord struct {
	inum     uint32
	off      int64
	start, n int
	seq      uint64
}

// uncommitted tags a record no write-through has committed: no seal
// releases it, only a replay.
const uncommitted = ^uint64(0)

// NVRAMLogStats counts staging-log activity on one board.
type NVRAMLogStats struct {
	Staged        uint64 // records admitted to the region
	StagedBytes   uint64
	Commits       uint64 // write-throughs committed into the open segment
	Degraded      uint64 // writes that fell back to the synchronous path (region full)
	Replayed      uint64 // records replayed after a crash
	ReplayedBytes uint64
}

// NVRAMStats combines the region's capacity accounting with the staging
// log's activity counters.
type NVRAMStats struct {
	Region xbus.NVRAMStats
	Log    NVRAMLogStats
}

func newNVLog(b *Board, nv *xbus.NVRAM) *nvlog {
	return &nvlog{b: b, nv: nv, arena: make([]byte, 0, nv.Capacity())}
}

// stage admits one record and returns its id, or returns xbus.ErrNVRAMFull
// when the region cannot hold it (the caller degrades to the synchronous
// write path).
func (l *nvlog) stage(p *sim.Proc, inum uint32, off int64, data []byte) (uint64, error) {
	if err := l.nv.Stage(p, len(data)); err != nil {
		return 0, err
	}
	id := l.released + uint64(len(l.recs))
	l.recs = append(l.recs, nvRecord{inum: inum, off: off, start: len(l.arena), n: len(data), seq: uncommitted})
	l.arena = append(l.arena, data...)
	l.stats.Staged++
	l.stats.StagedBytes += uint64(len(data))
	return id, nil
}

// writeThrough writes staged record id into the open segment through f and
// commits it, then tags it with the segment that carries it.  The armed
// crash ordinal fires between the write and the commit: the open segment
// holding the record is lost, the region keeps it.
func (l *nvlog) writeThrough(p *sim.Proc, id uint64, f *FSFile, off int64, data []byte) error {
	l.writes++
	fs := l.b.FS
	if _, err := f.File.WriteAt(p, data, off); err != nil {
		return err
	}
	if l.crashAt == l.writes {
		l.crashAt = 0
		l.b.Crash()
	}
	seq, err := fs.Commit(p)
	if err != nil {
		return err
	}
	l.recs[id-l.released].seq = seq
	l.stats.Commits++
	l.sealed(fs.Durable()) // the record's segment may be on the device already
	return nil
}

// sealed is the file system's seal-completion notification: the log is on
// the device through segment durable, so the oldest records up to the first
// one not yet carried that far give their region bytes back.
func (l *nvlog) sealed(durable uint64) {
	n := 0
	for n < len(l.recs) && l.recs[n].seq <= durable {
		n++
	}
	l.release(n)
}

// release drops the first n records and returns their region bytes.  No
// write-through holds a record's arena bytes (it writes the caller's), and
// replay releases only once it is done, so the bytes can move at once.
func (l *nvlog) release(n int) {
	if n == 0 {
		return
	}
	for _, rec := range l.recs[:n] {
		l.nv.Release(rec.n)
	}
	l.recs = l.recs[:copy(l.recs, l.recs[n:])]
	l.released += uint64(n)
	cut := len(l.arena)
	if len(l.recs) > 0 {
		cut = l.recs[0].start
	}
	l.arena = l.arena[:copy(l.arena, l.arena[cut:])]
	for i := range l.recs {
		l.recs[i].start -= cut
	}
}

// replay re-applies every surviving record to fs, a file system just
// mounted and not yet published to the board, and makes the result durable.
// Replay order is staging order, so later writes to an offset still win.
func (l *nvlog) replay(p *sim.Proc, fs *lfs.FS) error {
	n := len(l.recs)
	if n == 0 {
		return nil
	}
	end := p.Span("nvram", "replay")
	defer end()
	for i := 0; i < n; i++ {
		rec := l.recs[i]
		f, err := fs.OpenInum(p, rec.inum)
		if err == nil {
			_, err = f.WriteAt(p, l.arena[rec.start:rec.start+rec.n], rec.off)
		}
		if err != nil {
			return fmt.Errorf("server: nvram replay inode %d: %w", rec.inum, err)
		}
	}
	if err := fs.Sync(p); err != nil {
		return err
	}
	for _, rec := range l.recs[:n] {
		l.stats.Replayed++
		l.stats.ReplayedBytes += uint64(rec.n)
	}
	l.release(n)
	return nil
}

// armCrashAtCommit schedules a crash in the middle of the n-th
// write-through (1-based) — the fault plan's FSCrashAtCommit hook.
func (l *nvlog) armCrashAtCommit(n uint64) { l.crashAt = n }

// NVRAMStats returns the board's NVRAM region and staging-log counters,
// or zeros when the board has no region configured.
func (b *Board) NVRAMStats() NVRAMStats {
	if b.nvlog == nil {
		return NVRAMStats{}
	}
	return NVRAMStats{Region: b.nvlog.nv.Stats(), Log: b.nvlog.stats}
}

// fsSyncer is the file handle surface DurableWrite needs beyond FSFile's
// interface: LFS files expose their inode number and fsync.
type fsSyncer interface {
	Inum() uint32
	Sync(p *sim.Proc) error
}

// DurableWrite writes data at off in f and returns once the bytes are
// durable.  With an NVRAM region configured the record stages into
// battery-backed memory, is written into the open segment and committed
// there without a seal, and acknowledges; a read sees it at once.  A crash
// after the record is staged still acknowledges it, since MountFS replays
// it.  Without a region, or when the region is full (xbus.ErrNVRAMFull
// back-pressure), the write degrades to the synchronous path: write through
// LFS and seal the segment before acknowledging.
func (b *Board) DurableWrite(p *sim.Proc, f *FSFile, off int64, data []byte) (err error) {
	defer telemetry.Ensure(p, "small-write")(&err)
	b.sys.Host.CPUWork(p, FSWriteOverhead)
	lf, ok := f.File.(fsSyncer)
	if b.nvlog != nil && ok {
		id, err := b.nvlog.stage(p, lf.Inum(), off, data)
		if err == nil {
			if err = b.nvlog.writeThrough(p, id, f, off, data); errors.Is(err, lfs.ErrCrashed) {
				err = nil // the region keeps the record for MountFS to replay
			}
			return err
		}
		if !errors.Is(err, xbus.ErrNVRAMFull) {
			return err
		}
		b.nvlog.stats.Degraded++
		telemetry.MarkDegraded(p)
	}
	// Synchronous path: one crossbar pass into the LFS segment buffer,
	// write, and seal before acknowledging.
	b.XB.Memory.Transfer(p, len(data))
	if _, err := f.File.WriteAt(p, data, off); err != nil {
		return err
	}
	if ok {
		return lf.Sync(p)
	}
	return b.FS.Sync(p)
}

// DrainNVRAM seals what the board's staged records were written into, so
// that when it returns the region is empty — the quiesce before a planned
// shutdown or a read-back verification.
func (b *Board) DrainNVRAM(p *sim.Proc) error {
	if b.nvlog == nil || len(b.nvlog.recs) == 0 {
		return nil
	}
	return b.FS.Sync(p)
}
