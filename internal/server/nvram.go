package server

import (
	"raidii/internal/lfs"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// nvram is a board's battery-backed region, and it holds the file system's
// segment images: as many as fit whole.  So the end of the log the disks do
// not have yet — the open segment with its summary entries, and every sealed
// one whose device write is in flight — survives a crash: Crash keeps it as
// the tail, and MountFS rolls it forward after the log on disk.  A durable
// write is acknowledged once it is committed into the open segment, and it
// exists there only: the region is the log, not a copy of it.
type nvram struct {
	tail *lfs.Tail // what the last crash left of the log, until MountFS rolls it forward

	writes  uint64 // durable writes started (the crash ordinal space)
	crashAt uint64 // crash inside this durable write (1-based); 0 = never

	stats NVRAMLogStats
}

// NVRAMLogStats counts the durable writes that went through the region.
type NVRAMLogStats struct {
	Commits  uint64 // durable writes committed into the open segment
	Degraded uint64 // durable writes during which the file system waited for a segment image: the region was full
}

// NVRAMStats describes a board's battery-backed region and the durable
// writes that went through it.
type NVRAMStats struct {
	Capacity int // bytes
	Images   int // segment images the region holds: the file system's image pool
	Held     int // images holding blocks the disks lack; after a crash, the tail MountFS restores
	Log      NVRAMLogStats
}

// armCrashAtCommit schedules a crash inside the n-th durable write
// (1-based), between its write and its commit — the fault plan's
// FSCrashAtCommit hook.
func (nv *nvram) armCrashAtCommit(n uint64) { nv.crashAt = n }

// NVRAMStats returns the board's NVRAM counters, or zeros when the board has
// no region configured.
func (b *Board) NVRAMStats() NVRAMStats {
	nv := b.nv
	if nv == nil {
		return NVRAMStats{}
	}
	st := NVRAMStats{Capacity: b.sys.Cfg.NVRAMBytes, Images: b.fsCfg.Images, Held: nv.tail.Len(), Log: nv.stats}
	if nv.tail == nil && b.FS != nil {
		st.Held = b.FS.Pending()
	}
	return st
}

// DurableWrite writes data at off in f and returns once the bytes are
// durable.  One crossbar pass lands them in the open segment's image and
// the file system takes them there.  With an NVRAM region that image is
// battery-backed, so a commit — the dirty inodes appended, no seal — makes
// the write durable; a crash before the commit returns lfs.ErrCrashed, and
// the write is not acknowledged.  Without a region the segment seals before
// the write acknowledges.  Either way a read sees the bytes at once.
func (b *Board) DurableWrite(p *sim.Proc, f *FSFile, off int64, data []byte) (err error) {
	defer telemetry.Ensure(p, "small-write")(&err)
	b.sys.Host.CPUWork(p, FSWriteOverhead)
	b.XB.Memory.Transfer(p, len(data))
	fs, nv := b.FS, b.nv
	if nv == nil {
		if _, err := f.File.WriteAt(p, data, off); err != nil {
			return err
		}
		if lf, ok := f.File.(interface{ Sync(*sim.Proc) error }); ok {
			return lf.Sync(p) // fsync: this file's inode and the seal
		}
		return fs.Sync(p)
	}
	nv.writes++
	waits := fs.Stats().ImageWaits
	if _, err := f.File.WriteAt(p, data, off); err != nil {
		return err
	}
	if nv.crashAt == nv.writes {
		nv.crashAt = 0
		b.Crash()
	}
	if err := fs.Commit(p); err != nil {
		return err
	}
	nv.stats.Commits++
	if fs.Stats().ImageWaits != waits {
		nv.stats.Degraded++
		p.Span("server", "degraded")()
	}
	return nil
}

// DrainNVRAM seals the open segment and waits for every seal in flight, so
// that when it returns no image in the region holds a block the disks lack —
// the quiesce before a planned shutdown or a read-back verification.
func (b *Board) DrainNVRAM(p *sim.Proc) error {
	if b.nv == nil || b.FS == nil || b.FS.Pending() == 0 {
		return nil
	}
	return b.FS.Sync(p)
}
