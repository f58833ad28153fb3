package server

import (
	"fmt"

	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/xbus"
)

// nvlog is the NVRAM write-ahead staging log of one board.  A small
// synchronous write acknowledges the moment its record is durable in the
// battery-backed region; a background group commit folds batches of
// records into LFS segments and releases their staging bytes.  After a
// crash the records still in the region — including a batch a mid-commit
// crash interrupted — are replayed at mount.  Records are full-content
// overwrites keyed by (inode, offset), so replaying one that already
// reached the log rewrites identical bytes: replay is idempotent by
// construction.
type nvlog struct {
	b           *Board
	nv          *xbus.NVRAM
	commitBytes int

	// The staged records, oldest first, and their bytes back to back in the
	// same order.  The arena has the region's capacity, so staging does not
	// allocate; append grows it only when concurrent writers overshoot the
	// region (nv.Stage counts a record's bytes after its transfer wait).
	recs       []nvRecord
	arena      []byte
	committing bool // a background commit proc is spawned or running
	inCommit   bool // a groupCommit body is between batch capture and release

	commits uint64 // completed or attempted group commits (the crash ordinal space)
	crashAt uint64 // crash mid this commit ordinal (1-based); 0 = never

	stats NVRAMLogStats
}

// nvRecord is one staged small write: n bytes at arena[start:].
type nvRecord struct {
	inum     uint32
	off      int64
	start, n int
}

// NVRAMLogStats counts staging-log activity on one board.
type NVRAMLogStats struct {
	Staged        uint64 // records admitted to the region
	StagedBytes   uint64
	Commits       uint64 // group commits completed
	CommitRecords uint64 // records made durable by group commits
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

const defaultNVRAMCommitBytes = 256 << 10

func newNVLog(b *Board, nv *xbus.NVRAM, commitBytes int) *nvlog {
	if commitBytes <= 0 {
		commitBytes = defaultNVRAMCommitBytes
	}
	return &nvlog{b: b, nv: nv, commitBytes: commitBytes, arena: make([]byte, 0, nv.Capacity())}
}

// stage admits one record, or returns xbus.ErrNVRAMFull when the region
// cannot hold it (the caller degrades to the synchronous write path).
func (l *nvlog) stage(p *sim.Proc, inum uint32, off int64, data []byte) error {
	if err := l.nv.Stage(p, len(data)); err != nil {
		return err
	}
	l.recs = append(l.recs, nvRecord{inum: inum, off: off, start: len(l.arena), n: len(data)})
	l.arena = append(l.arena, data...)
	l.stats.Staged++
	l.stats.StagedBytes += uint64(len(data))
	if len(l.arena) >= l.commitBytes && !l.committing {
		l.committing = true
		l.b.sys.Eng.Spawn("nvram-commit", func(q *sim.Proc) {
			defer func() { l.committing = false }()
			// A commit failure latches in the file system (sticky device
			// error); the records stay staged and replay at the next mount.
			//lint:allow errdrop commit errors persist in the staged records themselves; nothing is lost by deferring them to replay
			_ = l.groupCommit(q)
		})
	}
	return nil
}

// groupCommit folds the currently staged batch into the LFS log and
// releases its region bytes.  The armed crash ordinal fires here: a crash
// in the middle of the batch loses the volatile half-written segment but
// keeps every record staged, which is exactly the state replay recovers.
func (l *nvlog) groupCommit(p *sim.Proc) error {
	// Serialize commit bodies: a drain arriving while the background
	// commit is mid-batch must wait it out, or the background release
	// would shift l.recs under this batch's indices.
	for l.inCommit {
		p.Wait(sim.Duration(1e6))
	}
	if len(l.recs) == 0 || l.b.FS == nil {
		return nil
	}
	l.inCommit = true
	defer func() { l.inCommit = false }()
	end := p.Span("nvram", "group-commit")
	defer end()
	l.commits++
	ordinal := l.commits
	batch := len(l.recs)
	for i := 0; i < batch; i++ {
		if l.crashAt == ordinal && i == (batch+1)/2 {
			// Mid-commit crash: volatile LFS buffers vanish, the region
			// keeps the whole batch.  The ordinal is consumed so replay's
			// own commits do not re-crash.
			l.crashAt = 0
			l.b.Crash()
			return nil
		}
		if err := l.applyRecord(p, l.recs[i]); err != nil {
			return err
		}
	}
	if err := l.b.FS.Sync(p); err != nil {
		return err
	}
	l.release(batch)
	l.stats.Commits++
	l.stats.CommitRecords += uint64(batch)
	return nil
}

// applyRecord writes one staged record into the file system.
func (l *nvlog) applyRecord(p *sim.Proc, rec nvRecord) error {
	f, err := l.b.FS.OpenInum(p, rec.inum)
	if err != nil {
		return fmt.Errorf("server: nvram commit inode %d: %w", rec.inum, err)
	}
	if _, err := f.WriteAt(p, l.arena[rec.start:rec.start+rec.n], rec.off); err != nil {
		return fmt.Errorf("server: nvram commit inode %d: %w", rec.inum, err)
	}
	return nil
}

// release drops the first n records after they are durable in the log and
// moves the ones staged since down to the start of the arena.  No commit
// body is applying a record when this runs (they serialize on inCommit).
func (l *nvlog) release(n int) {
	cut := 0
	for _, rec := range l.recs[:n] {
		l.nv.Release(rec.n)
		cut += rec.n
	}
	l.arena = l.arena[:copy(l.arena, l.arena[cut:])]
	l.recs = l.recs[:copy(l.recs, l.recs[n:])]
	for i := range l.recs {
		l.recs[i].start -= cut
	}
}

// crash resets the log's volatile state.  The staged records and their
// region accounting survive: that is the point of the battery.
func (l *nvlog) crash() {
	l.committing = false
}

// replay re-applies every surviving record after a remount and makes the
// result durable.  Records are idempotent overwrites, so records the
// interrupted commit already applied simply rewrite their own contents.
func (l *nvlog) replay(p *sim.Proc) error {
	if len(l.recs) == 0 {
		return nil
	}
	end := p.Span("nvram", "replay")
	defer end()
	batch := len(l.recs)
	for i := 0; i < batch; i++ {
		if err := l.applyRecord(p, l.recs[i]); err != nil {
			return err
		}
	}
	if err := l.b.FS.Sync(p); err != nil {
		return err
	}
	for i := 0; i < batch; i++ {
		l.stats.Replayed++
		l.stats.ReplayedBytes += uint64(l.recs[i].n)
	}
	l.release(batch)
	return nil
}

// armCrashAtCommit schedules a crash in the middle of the n-th group
// commit (1-based) — the fault plan's FSCrashAtCommit hook.
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
// battery-backed memory and acknowledges immediately — group commit moves
// it into the log in the background.  Without a region, or when the
// region is full (xbus.ErrNVRAMFull back-pressure), the write degrades to
// the synchronous path: write through LFS and seal the segment before
// acknowledging.
func (b *Board) DurableWrite(p *sim.Proc, f *FSFile, off int64, data []byte) (err error) {
	defer telemetry.Ensure(p, "small-write")(&err)
	b.sys.Host.CPUWork(p, FSWriteOverhead)
	lf, ok := f.File.(fsSyncer)
	if b.nvlog != nil && ok {
		if err := b.nvlog.stage(p, lf.Inum(), off, data); err != xbus.ErrNVRAMFull {
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

// DrainNVRAM synchronously commits everything staged in the board's
// NVRAM region — the quiesce before a planned shutdown or a read-back
// verification.
func (b *Board) DrainNVRAM(p *sim.Proc) error {
	if b.nvlog == nil || len(b.nvlog.recs) == 0 {
		return nil
	}
	return b.nvlog.groupCommit(p)
}
