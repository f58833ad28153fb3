package server

import (
	"fmt"

	"raidii/internal/lfs"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/xbus"
)

// nvlog is the NVRAM write-ahead staging log of one board.  A small
// synchronous write acknowledges the moment its record is durable in the
// battery-backed region.  A background group commit writes batches of
// records through LFS into the open segment and appends the dirty inodes
// there, but does not seal it: the records keep their region bytes until
// the seal that carries them, and every earlier one, has reached the device
// — the file system tells the log as each seal completes — so a commit
// costs no partial segment.  After a crash every record still in the region
// is replayed at mount, whether no commit had reached it or its segment
// never landed.  Records are full-content overwrites keyed by (inode,
// offset), so replaying one that already reached the log rewrites identical
// bytes: replay is idempotent by construction.
type nvlog struct {
	b           *Board
	nv          *xbus.NVRAM
	commitBytes int

	// The staged records, oldest first, and their bytes in the same order.
	// The arena has the region's capacity, so staging does not allocate;
	// append grows it only when concurrent writers overshoot the region
	// (nv.Stage counts a record's bytes after its transfer wait) or when
	// released bytes stay in place while a commit body runs (compact).
	recs  []nvRecord
	arena []byte
	// The first applied records are in the file system's log, not yet all on
	// its device; batches splits them by the segment each commit waits for.
	applied int
	batches []nvBatch

	commit     *sim.Server // one commit or replay body at a time
	committing bool        // a background commit proc is spawned or running

	commits uint64 // started group commits (the crash ordinal space)
	crashAt uint64 // crash mid this commit ordinal (1-based); 0 = never

	stats NVRAMLogStats
}

// nvRecord is one staged small write: n bytes at arena[start:].
type nvRecord struct {
	inum     uint32
	off      int64
	start, n int
}

// nvBatch is one group commit's records: the next n applied records, whose
// region bytes are released once the file system is durable through seq.
type nvBatch struct {
	n   int
	seq uint64
}

// NVRAMLogStats counts staging-log activity on one board.
type NVRAMLogStats struct {
	Staged        uint64 // records admitted to the region
	StagedBytes   uint64
	Commits       uint64 // group commits completed
	CommitRecords uint64 // records group commits wrote into the log
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
	return &nvlog{
		b: b, nv: nv, commitBytes: commitBytes,
		arena:  make([]byte, 0, nv.Capacity()),
		commit: sim.NewServer(b.sys.Eng, b.sys.Cfg.prefixed(fmt.Sprintf("xbus%d:nvram-commit", b.Index)), 1),
	}
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
	if l.unapplied() >= l.commitBytes && !l.committing {
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

// unapplied returns the staged bytes no group commit has written yet.
func (l *nvlog) unapplied() int {
	if l.applied == len(l.recs) {
		return 0
	}
	return len(l.arena) - l.recs[l.applied].start
}

// groupCommit writes the records no commit has reached into the open
// segment, without sealing it, and files them as a batch that waits for the
// segment carrying its last block.  The armed crash ordinal fires here: a
// crash in the middle of the batch loses the volatile segment but keeps
// every record staged, which is exactly the state replay recovers.
func (l *nvlog) groupCommit(p *sim.Proc) error {
	defer l.compact()
	l.commit.Acquire(p)
	defer l.commit.Release()
	fs := l.b.FS
	batch := len(l.recs) - l.applied
	if batch == 0 || fs == nil {
		return nil
	}
	end := p.Span("nvram", "group-commit")
	defer end()
	l.commits++
	ordinal := l.commits
	for i := 0; i < batch; i++ {
		if l.crashAt == ordinal && i == (batch+1)/2 {
			// Mid-commit crash: volatile LFS buffers vanish, the region
			// keeps the whole batch.  The ordinal is consumed so replay's
			// own commits do not re-crash.
			l.crashAt = 0
			l.b.Crash()
			return nil
		}
		// A seal completing while this body waits releases earlier batches
		// and lowers applied, so the next record is always at applied+i.
		if err := l.applyRecord(p, fs, l.recs[l.applied+i]); err != nil {
			return err
		}
	}
	seq, err := fs.Commit(p)
	if err != nil {
		return err
	}
	l.applied += batch
	l.batches = append(l.batches, nvBatch{n: batch, seq: seq})
	l.stats.Commits++
	l.stats.CommitRecords += uint64(batch)
	l.sealed(fs.Durable()) // the batch's segment may be on the device already
	return nil
}

// applyRecord writes one staged record into the file system.
func (l *nvlog) applyRecord(p *sim.Proc, fs *lfs.FS, rec nvRecord) error {
	f, err := fs.OpenInum(p, rec.inum)
	if err != nil {
		return fmt.Errorf("server: nvram commit inode %d: %w", rec.inum, err)
	}
	if _, err := f.WriteAt(p, l.arena[rec.start:rec.start+rec.n], rec.off); err != nil {
		return fmt.Errorf("server: nvram commit inode %d: %w", rec.inum, err)
	}
	return nil
}

// sealed is the file system's seal-completion notification: the log is on
// the device through segment durable, so every batch waiting for a segment
// up to it gives its region bytes back.
func (l *nvlog) sealed(durable uint64) {
	n, k := 0, 0
	for ; k < len(l.batches) && l.batches[k].seq <= durable; k++ {
		n += l.batches[k].n
	}
	if k == 0 {
		return
	}
	l.batches = l.batches[:copy(l.batches, l.batches[k:])]
	l.applied -= n
	l.release(n)
}

// release drops the first n records and returns their region bytes.
func (l *nvlog) release(n int) {
	for _, rec := range l.recs[:n] {
		l.nv.Release(rec.n)
	}
	l.recs = l.recs[:copy(l.recs, l.recs[n:])]
	l.compact()
}

// compact moves the staged records' bytes down to the start of the arena.
// A commit or replay body may be handing a record's bytes to the file system
// while it waits, so while one runs the bytes stay put; its end compacts.
func (l *nvlog) compact() {
	if l.commit.Busy() > 0 {
		return
	}
	cut := len(l.arena)
	if len(l.recs) > 0 {
		cut = l.recs[0].start
	}
	if cut == 0 {
		return
	}
	l.arena = l.arena[:copy(l.arena, l.arena[cut:])]
	for i := range l.recs {
		l.recs[i].start -= cut
	}
}

// crash resets the log's volatile state.  The staged records and their
// region accounting survive: that is the point of the battery.  None of
// them counts as applied any more — the segments that held them may be
// gone — so replay re-applies every one.
func (l *nvlog) crash() {
	l.committing = false
	l.applied = 0
	l.batches = l.batches[:0]
}

// replay re-applies every surviving record after a remount and makes the
// result durable.  Records are idempotent overwrites, so records whose
// segment did land simply rewrite their own contents.
func (l *nvlog) replay(p *sim.Proc) error {
	defer l.compact()
	l.commit.Acquire(p)
	defer l.commit.Release()
	if len(l.recs) == 0 {
		return nil
	}
	end := p.Span("nvram", "replay")
	defer end()
	fs := l.b.FS
	batch := len(l.recs)
	for i := 0; i < batch; i++ {
		if err := l.applyRecord(p, fs, l.recs[i]); err != nil {
			return err
		}
	}
	if err := fs.Sync(p); err != nil {
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

// DrainNVRAM commits everything staged in the board's NVRAM region and
// seals it, so that when it returns the region is empty — the quiesce
// before a planned shutdown or a read-back verification.
func (b *Board) DrainNVRAM(p *sim.Proc) error {
	if b.nvlog == nil || len(b.nvlog.recs) == 0 {
		return nil
	}
	if err := b.nvlog.groupCommit(p); err != nil {
		return err
	}
	return b.FS.Sync(p)
}
