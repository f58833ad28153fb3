package server

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

func nvramConfig(nvBytes int) Config {
	cfg := Fig8Config()
	cfg.DiskSpec.Cylinders = 120 // small disks keep the tests fast
	cfg.NVRAMBytes = nvBytes
	return cfg
}

// nvPattern fills one staged record's payload deterministically.
func nvPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*5 + seed
	}
	return b
}

// TestNVRAMStagedWritesCommitAndReadBack: small writes stage in the region,
// each one written through and committed into the open segment before it
// acknowledges, and every byte reads back.
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
	if st.Log.Staged != n {
		t.Fatalf("staged %d records, want %d", st.Log.Staged, n)
	}
	if st.Log.Commits != n {
		t.Fatalf("%d of %d records committed: %+v", st.Log.Commits, n, st.Log)
	}
	if st.Log.Degraded != 0 {
		t.Fatalf("%d writes degraded with a roomy region", st.Log.Degraded)
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
	if used := b.NVRAMStats().Region.Used; used != 0 {
		t.Fatalf("drain left %d bytes staged", used)
	}
}

// TestNVRAMCrashKeepsStagedDropsCache is the combined crash-semantics
// test: one Crash must discard every non-durable cache line AND preserve
// the battery-backed staging log, whose records then replay at mount.
func TestNVRAMCrashKeepsStagedDropsCache(t *testing.T) {
	cfg := nvramConfig(1 << 20) // no segment fills: the records stay staged
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
		// Staged records that MUST survive the crash.
		for i := 0; i < n; i++ {
			if err := b.DurableWrite(p, f, int64(i)*rec, nvPattern(rec, byte(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		st := b.NVRAMStats()
		if st.Log.Staged != n || st.Log.Commits != n || st.Region.Used != n*rec {
			t.Fatalf("want %d records staged, committed and unreleased before crash, got %+v, region %d bytes",
				n, st.Log, st.Region.Used)
		}

		b.Crash()

		if b.Cache.Lines() != 0 {
			t.Error("crash left cache lines resident")
		}
		if used := b.NVRAMStats().Region.Used; used != n*rec {
			t.Errorf("crash kept %d staged bytes, want %d", used, n*rec)
		}

		if err := b.MountFS(p); err != nil {
			t.Fatal(err)
		}
		if got := b.NVRAMStats().Log.Replayed; got != n {
			t.Fatalf("replayed %d records, want %d", got, n)
		}
		if used := b.NVRAMStats().Region.Used; used != 0 {
			t.Fatalf("replay left %d bytes staged", used)
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
// writes, optionally crashing in the middle of the eighth write-through via
// the fault plan, then recover and return the full file contents.  The
// writes after the crash still stage and acknowledge.
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
	sys.Eng.Spawn("stage", func(p *sim.Proc) {
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
		for i := 0; i < n; i++ {
			if err := b.DurableWrite(p, f, int64(i)*rec, nvPattern(rec, byte(i)*3)); err != nil {
				t.Fatal(err)
			}
		}
	})
	sys.Eng.Run() // every write acknowledges — and, when armed, the eighth crashes mid-write

	st := b.NVRAMStats()
	if crash {
		if st.Log.Commits != crashAt-1 {
			t.Fatalf("%d write-throughs committed, want the %d before the crash: %+v", st.Log.Commits, crashAt-1, st.Log)
		}
		if used := st.Region.Used; used != n*rec {
			t.Fatalf("mid-commit crash kept %d staged bytes, want %d", used, n*rec)
		}
	} else if st.Log.Commits != n {
		t.Fatalf("want %d clean write-throughs, got %+v", n, st.Log)
	}

	var out []byte
	sys.Eng.Spawn("recover", func(p *sim.Proc) {
		if crash {
			if err := b.MountFS(p); err != nil {
				t.Fatal(err)
			}
			if got := b.NVRAMStats().Log.Replayed; got != n {
				t.Fatalf("replayed %d records, want %d", got, n)
			}
		} else if err := b.DrainNVRAM(p); err != nil {
			t.Fatal(err)
		}
		f, err := b.OpenFS(p, "/acc")
		if err != nil {
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

// TestNVRAMCrashMidCommitReplaysToIdenticalState is the staging log's
// acceptance test: a crash injected in the middle of a write-through, followed by
// mount-time replay of the surviving NVRAM records, must end in file
// contents byte-identical to an uncrashed run of the same workload.
func TestNVRAMCrashMidCommitReplaysToIdenticalState(t *testing.T) {
	clean := runNVRAMCommitRun(t, false)
	crashed := runNVRAMCommitRun(t, true)
	if !bytes.Equal(clean, crashed) {
		t.Fatal("crash-replay state diverged from the no-crash run")
	}
	// And the recovered bytes are the workload's, not just self-consistent.
	for i := 0; i < 16; i++ {
		if !bytes.Equal(crashed[i*4096:(i+1)*4096], nvPattern(4096, byte(i)*3)) {
			t.Fatalf("record %d wrong after crash replay", i)
		}
	}
}

// TestNVRAMFullDegradesToSyncWrites: when the region cannot hold a record
// the write falls back to the synchronous path — slower, still durable,
// counted as degraded — and its seal releases the records staged before it.
func TestNVRAMFullDegradesToSyncWrites(t *testing.T) {
	// 16 KB region: four records fill it, and no segment seals on its own.
	sys, err := New(nvramConfig(16 << 10))
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
		f, err := b.CreateFS(p, "/full")
		if err != nil {
			t.Fatal(err)
		}
		if err := b.FS.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := b.DurableWrite(p, f, int64(i)*rec, nvPattern(rec, byte(9+i))); err != nil {
				t.Fatal(err)
			}
		}
		// The fifth write degrades, and its seal empties the region for the
		// last three.
		st := b.NVRAMStats()
		if st.Log.Staged != 7 || st.Log.Degraded != 1 {
			t.Fatalf("want 7 staged + 1 degraded, got %+v", st.Log)
		}
		if st.Region.Rejected != 1 || st.Region.Used != 3*rec {
			t.Fatalf("region rejected %d appends and holds %d bytes, want 1 and %d", st.Region.Rejected, st.Region.Used, 3*rec)
		}
		// Degraded or staged, every write is durable and readable.
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

// TestNVLogStageAllocatesNoRecordBuffers: staged bytes live in the arena the
// log made when the board was built, and released records leave their room
// behind, so staging allocates nothing per record — it used to make a buffer
// the size of each.
func TestNVLogStageAllocatesNoRecordBuffers(t *testing.T) {
	sys, err := New(nvramConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	l := sys.Boards[0].nvlog
	const rec, n = 4 << 10, 64
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		var payloads [n][]byte
		for i := range payloads {
			payloads[i] = nvPattern(rec, byte(i))
		}
		stageAll := func() {
			for i, data := range payloads {
				if _, err := l.stage(p, 7, int64(i)*rec, data); err != nil {
					t.Fatal(err)
				}
			}
		}
		stageAll() // warm: the record table at its size
		l.release(n / 2)
		if r := l.recs[0]; len(l.recs) != n/2 || !bytes.Equal(l.arena[r.start:r.start+r.n], payloads[n/2]) {
			t.Fatalf("after releasing half: %d records, and the first does not hold record %d's bytes", len(l.recs), n/2)
		}
		l.release(n / 2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stageAll()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= rec {
			t.Errorf("staging %d records allocated %d bytes, want less than one record", n, got)
		}
		for i, r := range l.recs {
			if !bytes.Equal(l.arena[r.start:r.start+r.n], payloads[i]) {
				t.Fatalf("record %d does not hold its bytes", i)
			}
		}
	})
	sys.Eng.Run()
}
