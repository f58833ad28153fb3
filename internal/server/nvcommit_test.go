package server

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/lfs"
	"raidii/internal/sim"
)

// The durable-write protocol: a durable write enters the open segment and
// commits there without sealing it.  The region holds the segment images, so
// an image holds blocks the disks lack from its first block until its own
// seal has reached the device, and a crash keeps exactly those images.

const nvRec = 4 << 10

// smallSegConfig is nvramConfig with 64 KB segments (15 data blocks), so a
// few records fill one.
func smallSegConfig(nvBytes int) Config {
	cfg := nvramConfig(nvBytes)
	cfg.LFS = lfs.Config{SegBytes: 64 << 10, MaxInodes: 256, CleanReserve: 3}
	return cfg
}

// formatWithFile formats board b's file system and creates and checkpoints
// one empty file.
func formatWithFile(t *testing.T, p *sim.Proc, b *Board, path string) *FSFile {
	t.Helper()
	if err := b.FormatFS(p); err != nil {
		t.Fatal(err)
	}
	f, err := b.CreateFS(p, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.FS.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDurableWriteDoesNotSeal: four durable writes each commit into the open
// segment without sealing one, and the open image holds them.
func TestDurableWriteDoesNotSeal(t *testing.T) {
	sys, err := New(nvramConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	var before lfs.Stats
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f := formatWithFile(t, p, b, "/j")
		before = b.FS.Stats()
		for i := 0; i < 4; i++ {
			if err := b.DurableWrite(p, f, int64(i)*nvRec, nvPattern(nvRec, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	})
	sys.Eng.Run()
	st, after := b.NVRAMStats(), b.FS.Stats()
	if st.Log.Commits != 4 {
		t.Fatalf("want four write-throughs committed, got %+v", st.Log)
	}
	if after.SegmentsWritten != before.SegmentsWritten || after.PartialSegSeals != before.PartialSegSeals {
		t.Errorf("a durable write sealed: segments written %d -> %d, partial seals %d -> %d",
			before.SegmentsWritten, after.SegmentsWritten, before.PartialSegSeals, after.PartialSegSeals)
	}
	if st.Held != 1 {
		t.Errorf("%d images hold blocks the disks lack after the writes, want the open one", st.Held)
	}
}

// TestDurableWriteIsReadableAtOnce: a read right after a durable write
// returns the new bytes, with no drain and no seal between the two.
func TestDurableWriteIsReadableAtOnce(t *testing.T) {
	sys, err := New(nvramConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f := formatWithFile(t, p, b, "/j")
		sealed := b.FS.Stats().SegmentsWritten
		want := nvPattern(nvRec, 42)
		if err := b.DurableWrite(p, f, nvRec, want); err != nil {
			t.Fatal(err)
		}
		got, err := b.FSRead(p, f, nvRec, nvRec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("a read after a durable write does not see its bytes")
		}
		if n := b.FS.Stats().SegmentsWritten - sealed; n != 0 || b.NVRAMStats().Held != 1 {
			t.Errorf("%d segments sealed and %d images held by the write and read, want none and the open one",
				n, b.NVRAMStats().Held)
		}
	})
	sys.Eng.Run()
}

// hooks is a tracer that calls its functions, where set, as a process
// starts and as a span ends.
type hooks struct {
	start func(p *sim.Proc)
	span  func(p *sim.Proc, cat, name string, start sim.Time)
}

func (h hooks) ProcStart(p *sim.Proc) {
	if h.start != nil {
		h.start(p)
	}
}
func (hooks) ProcFinish(*sim.Proc)                                       {}
func (hooks) ResourceCreate(string, int)                                 {}
func (hooks) ResourceWait(string, *sim.Proc, int)                        {}
func (hooks) ResourceAcquire(string, *sim.Proc, int, sim.Duration, bool) {}
func (hooks) ResourceRelease(string, int)                                {}
func (h hooks) Span(p *sim.Proc, cat, name string, start sim.Time) {
	if h.span != nil {
		h.span(p, cat, name, start)
	}
}

// TestCommittedRecordsReleaseWhenTheirSealLands: sixteen durable writes span
// two 64 KB segments.  The first fills and seals during the writes, and the
// drain seals the second while the first is still being written, so the
// first seal lands with the second in flight: the region must then hold
// exactly the second's image, and none once that one lands too.
func TestCommittedRecordsReleaseWhenTheirSealLands(t *testing.T) {
	const n = 16
	sys, err := New(smallSegConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	var writing bool
	var held []int // images holding blocks the disks lack as each seal lands
	sys.Eng.SetTracer(hooks{span: func(_ *sim.Proc, cat, name string, _ sim.Time) {
		if writing && cat == "lfs" && name == "segment-write" {
			held = append(held, b.NVRAMStats().Held)
		}
	}})
	var before int
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f := formatWithFile(t, p, b, "/j")
		writing = true
		for i := 0; i < n; i++ {
			if err := b.DurableWrite(p, f, int64(i)*nvRec, nvPattern(nvRec, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		before = b.NVRAMStats().Held
		if err := b.DrainNVRAM(p); err != nil {
			t.Fatal(err)
		}
	})
	sys.Eng.Run()
	if st := b.NVRAMStats(); st.Log.Commits != n || st.Held != 0 {
		t.Fatalf("after the drain: %+v; want %d commits and no image held", st, n)
	}
	if before != 2 || !slices.Equal(held, []int{1, 0}) {
		t.Fatalf("%d images held after the writes, then %v as the seals landed; want 2, then [1 0]", before, held)
	}
}

// TestDrainNVRAMEmptiesTheRegion: with six records committed into the open
// segment, a drain seals once and leaves nothing staged.
func TestDrainNVRAMEmptiesTheRegion(t *testing.T) {
	sys, err := New(nvramConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f := formatWithFile(t, p, b, "/j")
		for i := 0; i < 6; i++ {
			if err := b.DurableWrite(p, f, int64(i)*nvRec, nvPattern(nvRec, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	})
	sys.Eng.Run()
	if st := b.NVRAMStats(); st.Log.Commits != 6 || st.Held != 1 {
		t.Fatalf("before the drain: %+v", st)
	}
	before := b.FS.Stats().SegmentsWritten
	sys.Eng.Spawn("drain", func(p *sim.Proc) {
		if err := b.DrainNVRAM(p); err != nil {
			t.Fatal(err)
		}
		if held := b.NVRAMStats().Held; held != 0 {
			t.Errorf("drain left %d images holding blocks the disks lack", held)
		}
		if got := b.FS.Stats().SegmentsWritten - before; got != 1 {
			t.Errorf("drain sealed %d segments, want 1", got)
		}
		f, err := b.OpenFS(p, "/j")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			got, err := b.FSRead(p, f, int64(i)*nvRec, nvRec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, nvPattern(nvRec, byte(i))) {
				t.Fatalf("record %d read back wrong after drain", i)
			}
		}
	})
	sys.Eng.Run()
}

// Crash enumeration.  One scripted workload alternates durable records with
// plain writes; a reference run records the instant each durable write was
// acknowledged and each segment write began and ended.  The same script is
// then run once per crash point — after every durable write's commit, after
// every seal completion, in the middle of every seal, and in the middle of
// every durable write, between its write and its commit — and after each
// crash the board must mount to a state that keeps every acknowledged
// durable write, checks clean, holds no image the disks lack, and survives
// a second crash and mount byte for byte.

const (
	crashOps   = 64      // script operations, every other one a durable record
	crashPlain = 8 << 10 // bytes of each plain write
)

// crashClock keeps the instants the enumeration crashes at; its span is a
// tracer's.
type crashClock struct {
	commitEnds []sim.Time    // acknowledgement of each durable write
	seals      [][2]sim.Time // start and end of each segment write
}

func (c *crashClock) span(p *sim.Proc, cat, name string, start sim.Time) {
	switch {
	case cat == "datapath" && name == "small-write":
		c.commitEnds = append(c.commitEnds, p.Now())
	case cat == "lfs" && name == "segment-write":
		c.seals = append(c.seals, [2]sim.Time{start, p.Now()})
	}
}

// crashScript runs the workload on a fresh machine armed with plan: it
// formats the board and checkpoints /journal and /data, then alternates 4 KB
// durable records appended to /journal with 8 KB plain writes cycling over
// /data.  The script stops at its first error, or at stop — its clients die
// with the board.  It returns the system, the instant the set-up ended and
// how many records were acknowledged.
func crashScript(t *testing.T, plan fault.Plan, stop sim.Time, tr sim.Tracer) (*System, sim.Time, int) {
	t.Helper()
	cfg := smallSegConfig(512 << 10)
	cfg.Faults = plan
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		sys.Eng.SetTracer(tr)
	}
	b := sys.Boards[0]
	var ready sim.Time
	acked := 0
	sys.Eng.Spawn("script", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			t.Fatal(err)
		}
		j, err := b.CreateFS(p, "/journal")
		if err != nil {
			t.Fatal(err)
		}
		d, err := b.CreateFS(p, "/data")
		if err != nil {
			t.Fatal(err)
		}
		if err := b.FS.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		ready = p.Now()
		for i := 0; i < crashOps && p.Now() < stop; i++ {
			if i%2 == 0 {
				if b.DurableWrite(p, j, int64(acked)*nvRec, nvPattern(nvRec, byte(acked))) != nil {
					return
				}
				acked++
				continue
			}
			off := int64(i/2%6) * crashPlain
			if b.FSWrite(p, d, off, nvPattern(crashPlain, byte(100+i))) != nil {
				return
			}
		}
	})
	sys.Eng.Run()
	return sys, ready, acked
}

// fileBytes reads every byte of path.
func fileBytes(p *sim.Proc, fs *lfs.FS, path string) ([]byte, error) {
	f, err := fs.Open(p, path)
	if err != nil {
		return nil, err
	}
	size, err := f.Size(p)
	if err != nil {
		return nil, err
	}
	return f.ReadAt(p, 0, int(size))
}

// mountAndSnapshot mounts board b after a crash, checks the file system and
// returns the contents of the script's two files.
func mountAndSnapshot(p *sim.Proc, b *Board) ([2][]byte, error) {
	var snap [2][]byte
	if err := b.MountFS(p); err != nil {
		return snap, err
	}
	rep, err := b.FS.Check(p)
	if err != nil {
		return snap, err
	}
	if !rep.OK() {
		return snap, fmt.Errorf("lfs.Check: orphans %v, bad pointers %v", rep.Orphans, rep.BadPointers)
	}
	if held := b.NVRAMStats().Held; held != 0 {
		return snap, fmt.Errorf("mount left %d images holding blocks the disks lack", held)
	}
	for i, path := range []string{"/journal", "/data"} {
		if snap[i], err = fileBytes(p, b.FS, path); err != nil {
			return snap, fmt.Errorf("%s: %w", path, err)
		}
	}
	return snap, nil
}

// checkCrashPoint runs the script with plan armed and verifies recovery.
func checkCrashPoint(t *testing.T, plan fault.Plan, stop sim.Time) {
	t.Helper()
	sys, _, acked := crashScript(t, plan, stop, nil)
	b := sys.Boards[0]
	// The engine is quiet: every write the crashed file system still had in
	// flight has landed, and the region keeps the images it held at the crash.
	st := b.NVRAMStats()
	if st.Held > st.Images {
		t.Fatalf("the region keeps %d images; it holds %d", st.Held, st.Images)
	}
	sys.Eng.Spawn("recover", func(p *sim.Proc) {
		if err := b.FS.Commit(p); !errors.Is(err, lfs.ErrCrashed) {
			t.Fatalf("the board did not crash (commit returned %v)", err)
		}
		first, err := mountAndSnapshot(p, b)
		if err != nil {
			t.Fatal(err)
		}
		journal := first[0]
		if len(journal) < acked*nvRec {
			t.Fatalf("journal is %d bytes, %d records were acknowledged", len(journal), acked)
		}
		for i := 0; i < acked; i++ {
			if !bytes.Equal(journal[i*nvRec:(i+1)*nvRec], nvPattern(nvRec, byte(i))) {
				t.Fatalf("acknowledged record %d of %d lost", i, acked)
			}
		}
		b.Crash()
		second, err := mountAndSnapshot(p, b)
		if err != nil {
			t.Fatalf("second mount: %v", err)
		}
		if !bytes.Equal(first[0], second[0]) || !bytes.Equal(first[1], second[1]) {
			t.Fatal("a second crash and mount changed the files")
		}
	})
	sys.Eng.Run()
}

func TestNVRAMCrashEnumeration(t *testing.T) {
	var clock crashClock
	sys, ready, acked := crashScript(t, fault.Plan{}, sim.Time(1<<62), hooks{span: clock.span})
	if st := sys.Boards[0].NVRAMStats(); acked != crashOps/2 || st.Log.Degraded != 0 {
		t.Fatalf("reference run: %d of %d records acknowledged, %d degraded", acked, crashOps/2, st.Log.Degraded)
	}
	for len(clock.seals) > 0 && clock.seals[0][0] < ready {
		clock.seals = clock.seals[1:] // the set-up's own seals
	}
	if len(clock.commitEnds) < 4 || len(clock.seals) < 4 {
		t.Fatalf("reference run: %d commits, %d seals: too few crash points", len(clock.commitEnds), len(clock.seals))
	}
	crashAt := func(name string, at sim.Time) {
		t.Run(name, func(t *testing.T) {
			checkCrashPoint(t, fault.Plan{}.FSCrashAt(time.Duration(at), 0), at)
		})
	}
	// A time-triggered crash fires before anything else due at its instant,
	// so "after" is one nanosecond later.
	for i, at := range clock.commitEnds {
		crashAt(fmt.Sprintf("after-commit-%d", i+1), at+1)
	}
	for i, s := range clock.seals {
		crashAt(fmt.Sprintf("mid-seal-%d", i+1), (s[0]+s[1])/2)
		crashAt(fmt.Sprintf("after-seal-%d", i+1), s[1]+1)
	}
	for n := range clock.commitEnds {
		t.Run(fmt.Sprintf("mid-commit-%d", n+1), func(t *testing.T) {
			checkCrashPoint(t, fault.Plan{}.FSCrashAtCommit(uint64(n+1), 0), sim.Time(1<<62))
		})
	}
}

// TestMountKeepsTheCleanerReserve: a board formatted with a cleaner reserve
// of three, crashed and mounted, still starts its cleaner when a seal leaves
// two segments free — a mount used to reset the reserve to four.
func TestMountKeepsTheCleanerReserve(t *testing.T) {
	cfg := smallSegConfig(512 << 10)
	cfg.DiskSpec.Cylinders = 1 // a log of about eighty segments
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	var free []int // free segments as each cleaner process starts
	sys.Eng.SetTracer(hooks{start: func(p *sim.Proc) {
		if p.Name() == "lfs-cleaner" {
			free = append(free, b.FS.FreeSegments())
		}
	}})
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		formatWithFile(t, p, b, "/churn")
		b.Crash()
		if err := b.MountFS(p); err != nil {
			t.Fatal(err)
		}
		f, err := b.OpenFS(p, "/churn")
		if err != nil {
			t.Fatal(err)
		}
		// Each pass rewrites the file, so the log fills with dead blocks.
		for i := 0; i < 100 && len(free) == 0; i++ {
			if err := b.FSWrite(p, f, 0, nvPattern(256<<10, byte(i))); err != nil {
				t.Fatal(err)
			}
			if err := b.FS.Sync(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	sys.Eng.Run()
	if want := cfg.LFS.CleanReserve - 1; len(free) == 0 || free[0] != want {
		t.Fatalf("the cleaner started with %v segments free, want %d: the reserve is %d", free, want, cfg.LFS.CleanReserve)
	}
}
