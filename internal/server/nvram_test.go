package server

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/lfs"
	"raidii/internal/sim"
)

func nvramConfig(nvBytes int) Config {
	cfg := Fig8Config()
	cfg.DiskSpec.Cylinders = 120 // small disks keep the tests fast
	cfg.NVRAMBytes = nvBytes
	return cfg
}

// nvPattern fills one durable write's payload deterministically.
func nvPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*5 + seed
	}
	return b
}

// TestNVRAMStagedWritesCommitAndReadBack: small durable writes are each
// written and committed into the open segment, whose image the region
// holds, before they acknowledge, and every byte reads back.
func TestNVRAMStagedWritesCommitAndReadBack(t *testing.T) {
	sys, err := New(nvramConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	const rec = 4 << 10
	const n = 24
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			t.Fatal(err)
		}
		f, err := b.CreateFS(p, "/small")
		if err != nil {
			t.Fatal(err)
		}
		if err := b.FS.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := b.DurableWrite(p, f, int64(i)*rec, nvPattern(rec, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	})
	sys.Eng.Run()
	st := b.NVRAMStats()
	if st.Capacity != 1<<20 || st.Images != 1 || st.Held != 1 {
		t.Fatalf("region %+v: want 1 MB holding one 960 KB image, in use", st)
	}
	if st.Log.Commits != n {
		t.Fatalf("%d of %d writes committed: %+v", st.Log.Commits, n, st.Log)
	}
	if st.Log.Degraded != 0 {
		t.Fatalf("%d writes waited for an image in a roomy region", st.Log.Degraded)
	}
	sys.Eng.Spawn("verify", func(p *sim.Proc) {
		if err := b.DrainNVRAM(p); err != nil {
			t.Fatal(err)
		}
		f, err := b.OpenFS(p, "/small")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got, err := b.FSRead(p, f, int64(i)*rec, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, nvPattern(rec, byte(i))) {
				t.Fatalf("record %d read back wrong after drain", i)
			}
		}
	})
	sys.Eng.Run()
	if held := b.NVRAMStats().Held; held != 0 {
		t.Fatalf("drain left %d images holding blocks the disks lack", held)
	}
}

// TestNVRAMCrashKeepsStagedDropsCache is the combined crash-semantics
// test: one Crash must discard every non-durable cache line AND keep the
// battery-backed open segment, which mount then rolls forward.
func TestNVRAMCrashKeepsStagedDropsCache(t *testing.T) {
	cfg := nvramConfig(1 << 20) // no segment fills: the writes stay in the open image
	cfg.CacheBytes = 2 << 20
	cfg.CacheLineBytes = 64 << 10
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	const rec = 4 << 10
	const n = 8
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			t.Fatal(err)
		}
		f, err := b.CreateFS(p, "/staged")
		if err != nil {
			t.Fatal(err)
		}
		if err := b.FS.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		// Resident cache lines that must NOT survive the crash.
		if _, err := b.Cache.Read(p, 0, (512<<10)/512); err != nil {
			t.Fatal(err)
		}
		if b.Cache.Lines() == 0 {
			t.Fatal("expected resident cache lines before crash")
		}
		// Durable writes that MUST survive the crash.
		for i := 0; i < n; i++ {
			if err := b.DurableWrite(p, f, int64(i)*rec, nvPattern(rec, byte(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		if st := b.NVRAMStats(); st.Log.Commits != n || st.Held != 1 {
			t.Fatalf("want %d writes committed into the one open image before the crash, got %+v", n, st)
		}

		b.Crash()

		if b.Cache.Lines() != 0 {
			t.Error("crash left cache lines resident")
		}
		if held := b.NVRAMStats().Held; held != 1 {
			t.Errorf("crash kept %d images, want the open one", held)
		}

		if err := b.MountFS(p); err != nil {
			t.Fatal(err)
		}
		if got := b.FS.Stats().RollForwardSegs; got != 1 {
			t.Fatalf("mount rolled %d segments forward, want the open one from the region", got)
		}
		if held := b.NVRAMStats().Held; held != 0 {
			t.Fatalf("mount left %d images holding blocks the disks lack", held)
		}
		g, err := b.OpenFS(p, "/staged")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got, err := b.FSRead(p, g, int64(i)*rec, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, nvPattern(rec, byte(i+1))) {
				t.Fatalf("record %d lost across the crash", i)
			}
		}
	})
	sys.Eng.Run()
}

// runNVRAMCommitRun performs the acceptance scenario once: sixteen durable
// writes, optionally crashing in the middle of the eighth — between its
// write and its commit — via the fault plan, then recover and return the
// full file contents.  The crashed write is not acknowledged: after the
// mount the writer issues it again, and the ones after it.
func runNVRAMCommitRun(t *testing.T, crash bool) []byte {
	t.Helper()
	const rec = 4 << 10
	const n = 16
	const crashAt = n / 2
	cfg := nvramConfig(1 << 20)
	if crash {
		cfg.Faults = fault.Plan{}.FSCrashAtCommit(crashAt, 0)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	write := func(p *sim.Proc, f *FSFile, from int) (int, error) {
		for i := from; i < n; i++ {
			if err := b.DurableWrite(p, f, int64(i)*rec, nvPattern(rec, byte(i)*3)); err != nil {
				return i, err
			}
		}
		return n, nil
	}
	acked := 0
	sys.Eng.Spawn("write", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			t.Fatal(err)
		}
		f, err := b.CreateFS(p, "/acc")
		if err != nil {
			t.Fatal(err)
		}
		if err := b.FS.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		if acked, err = write(p, f, 0); crash != errors.Is(err, lfs.ErrCrashed) {
			t.Fatalf("writes ended with %v after %d acknowledgements", err, acked)
		}
	})
	sys.Eng.Run()

	st := b.NVRAMStats()
	if crash {
		if acked != crashAt-1 || st.Log.Commits != crashAt-1 {
			t.Fatalf("%d writes acknowledged and %d committed, want the %d before the crash: %+v", acked, st.Log.Commits, crashAt-1, st.Log)
		}
		if st.Held != 1 {
			t.Fatalf("mid-commit crash kept %d images, want the open one", st.Held)
		}
	} else if st.Log.Commits != n {
		t.Fatalf("want %d clean commits, got %+v", n, st.Log)
	}

	var out []byte
	sys.Eng.Spawn("recover", func(p *sim.Proc) {
		if crash {
			if err := b.MountFS(p); err != nil {
				t.Fatal(err)
			}
			if got := b.FS.Stats().RollForwardSegs; got != 1 {
				t.Fatalf("mount rolled %d segments forward, want the open one from the region", got)
			}
		}
		f, err := b.OpenFS(p, "/acc")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < acked; i++ {
			got, err := b.FSRead(p, f, int64(i)*rec, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, nvPattern(rec, byte(i)*3)) {
				t.Fatalf("acknowledged record %d lost", i)
			}
		}
		if _, err := write(p, f, acked); err != nil {
			t.Fatal(err)
		}
		if err := b.DrainNVRAM(p); err != nil {
			t.Fatal(err)
		}
		out, err = b.FSRead(p, f, 0, n*rec)
		if err != nil {
			t.Fatal(err)
		}
	})
	sys.Eng.Run()
	return out
}

// TestNVRAMCrashMidCommitReplaysToIdenticalState is the region's acceptance
// test: a crash injected between a durable write and its commit, followed by
// mount's roll-forward of the surviving open segment and the writer's retry
// of what was not acknowledged, must end in file contents byte-identical to
// an uncrashed run of the same workload.
func TestNVRAMCrashMidCommitReplaysToIdenticalState(t *testing.T) {
	clean := runNVRAMCommitRun(t, false)
	crashed := runNVRAMCommitRun(t, true)
	if !bytes.Equal(clean, crashed) {
		t.Fatal("crash-recovery state diverged from the no-crash run")
	}
	// And the recovered bytes are the workload's, not just self-consistent.
	for i := 0; i < 16; i++ {
		if !bytes.Equal(crashed[i*4096:(i+1)*4096], nvPattern(4096, byte(i)*3)) {
			t.Fatalf("record %d wrong after crash recovery", i)
		}
	}
}

// TestNVRAMFullRegionWaitsForASeal: a region of one 64 KB segment holds one
// image, so the durable write that fills it seals it, and the next waits
// for that seal to reach the disks — counted as degraded — instead of
// sealing a partial segment of its own.  Every write is durable and reads
// back.
func TestNVRAMFullRegionWaitsForASeal(t *testing.T) {
	sys, err := New(smallSegConfig(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	const rec = 4 << 10
	const n = 32
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f := formatWithFile(t, p, b, "/full")
		before := b.FS.Stats()
		for i := 0; i < n; i++ {
			if err := b.DurableWrite(p, f, int64(i)*rec, nvPattern(rec, byte(9+i))); err != nil {
				t.Fatal(err)
			}
			if held := b.NVRAMStats().Held; held > 1 {
				t.Fatalf("write %d: %d images hold blocks in a one-image region", i, held)
			}
		}
		st, after := b.NVRAMStats(), b.FS.Stats()
		waits := after.ImageWaits - before.ImageWaits
		if st.Images != 1 || st.Log.Commits != n || st.Log.Degraded == 0 || st.Log.Degraded != waits {
			t.Fatalf("region %+v after %d image waits: want one image, %d commits, and every wait a degraded write", st, waits, n)
		}
		if sealed := after.SegmentsWritten - before.SegmentsWritten; sealed < st.Log.Degraded || after.PartialSegSeals != before.PartialSegSeals {
			t.Fatalf("%d seals, %d of them partial, for %d waits: a full region must wait for full seals", sealed, after.PartialSegSeals-before.PartialSegSeals, st.Log.Degraded)
		}
		if err := b.DrainNVRAM(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got, err := b.FSRead(p, f, int64(i)*rec, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, nvPattern(rec, byte(9+i))) {
				t.Fatalf("record %d wrong after back-pressure", i)
			}
		}
	})
	sys.Eng.Run()
}

// TestNVRAMOversizedRegionRejected: a region that would starve the
// transfer-buffer pool fails assembly rather than overcommitting DRAM.
func TestNVRAMOversizedRegionRejected(t *testing.T) {
	if _, err := New(nvramConfig(32 << 20)); err == nil {
		t.Fatal("oversized nvram region accepted")
	} else if !strings.Contains(err.Error(), "nvram") {
		t.Errorf("oversize error does not mention nvram: %v", err)
	}
}

// TestNVRAMRegionBelowOneSegmentRejected: the region holds the segment
// images, so one smaller than a segment holds none and fails assembly.
func TestNVRAMRegionBelowOneSegmentRejected(t *testing.T) {
	if _, err := New(smallSegConfig(64<<10 - 1)); err == nil {
		t.Fatal("a region smaller than one segment accepted")
	} else if !strings.Contains(err.Error(), "holds no") {
		t.Errorf("error does not explain the missing segment: %v", err)
	}
	if _, err := New(smallSegConfig(64 << 10)); err != nil {
		t.Fatalf("a region of one segment rejected: %v", err)
	}
}

// Satellite: fault-plan validation.  A plan naming hardware the assembled
// system does not have, or scripting an impossible pair of events, must be
// rejected at arm time with a precise message.

func TestFaultPlanRejectsCrashOnMissingBoard(t *testing.T) {
	cfg := nvramConfig(1 << 20)
	cfg.Faults = fault.Plan{}.FSCrashAt(time.Second, 7)
	if _, err := New(cfg); err == nil {
		t.Fatal("crash on unassembled board accepted")
	} else if !strings.Contains(err.Error(), "no board 7") {
		t.Errorf("error does not name the missing board: %v", err)
	}
}

func TestFaultPlanRejectsCommitCrashWithoutNVRAM(t *testing.T) {
	cfg := Fig8Config()
	cfg.DiskSpec.Cylinders = 120
	cfg.Faults = fault.Plan{}.FSCrashAtCommit(1, 0)
	if _, err := New(cfg); err == nil {
		t.Fatal("commit-triggered crash accepted without an nvram region")
	} else if !strings.Contains(err.Error(), "needs an nvram region") {
		t.Errorf("error does not explain the missing region: %v", err)
	}
}

func TestFaultPlanRejectsOverlappingDiskFailures(t *testing.T) {
	cfg := Fig8Config()
	cfg.DiskSpec.Cylinders = 120
	cfg.Faults = fault.Plan{}.
		DiskFailAt(time.Second, 0, 3).
		DiskFailAt(2*time.Second, 0, 3)
	if _, err := New(cfg); err == nil {
		t.Fatal("overlapping double failure accepted")
	} else if !strings.Contains(err.Error(), "overlapping disk failure") {
		t.Errorf("error does not flag the overlap: %v", err)
	}
	// Distinct disks are a legitimate double-failure script.
	cfg.Faults = fault.Plan{}.
		DiskFailAt(time.Second, 0, 3).
		DiskFailAt(2*time.Second, 0, 4)
	if _, err := New(cfg); err != nil {
		t.Fatalf("distinct-disk double failure rejected: %v", err)
	}
}
