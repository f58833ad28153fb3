package raidii

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"raidii/internal/fault"
	"raidii/internal/metrics"
	"raidii/internal/raid"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/workload"
)

// This file holds the robustness experiments added with the NVRAM staging
// log and the RAID-6 array: small-write latency with and without
// battery-backed staging, and a scripted double-disk-failure timeline.

// nvFill produces one small write's deterministic payload.
func nvFill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

// SmallWriteLatencyResult compares the per-request latency distribution of
// durable 4 KB writes on two otherwise identical machines: one staging
// through battery-backed NVRAM, one forced to seal an LFS segment before
// every acknowledgement.
type SmallWriteLatencyResult struct {
	Ops     int
	RecSize int

	Staged   LatencyStats // NVRAM staging: ack once the record is battery-backed
	Unstaged LatencyStats // synchronous path: write through LFS and sync

	Commits       uint64 // background group commits the staged run completed
	CommitRecords uint64
	Degraded      uint64 // staged-run writes that hit ErrNVRAMFull back-pressure
}

// SmallWriteLatency measures the latency a synchronous small write pays
// with and without the NVRAM staging log (§3.3's small-write problem moved
// up to the file-server level, following Baker et al.'s NVRAM write
// caching).  Both runs issue the same durable 4 KB writes; the staged run
// acknowledges out of battery-backed DRAM and group-commits in the
// background, the unstaged run seals a segment per write.  Every record is
// verified by read-back after a final drain, so the latency win is never
// bought with durability.
func SmallWriteLatency() (SmallWriteLatencyResult, error) {
	out := SmallWriteLatencyResult{Ops: 256, RecSize: 4 << 10}
	for _, staged := range []bool{true, false} {
		cfg := server.Fig8Config()
		label := "unstaged"
		if staged {
			cfg.NVRAMBytes = 1 << 20
			label = "staged"
		}
		sys, err := server.New(cfg)
		if err != nil {
			return out, err
		}
		defer sys.Eng.Shutdown()
		attachProbe("smallwrite/"+label, sys.Eng)
		telemetry.Attach(sys.Eng)
		b := sys.Boards[0]

		var f *server.FSFile
		var opErr error
		sys.Eng.Spawn("format", func(p *sim.Proc) {
			if opErr = b.FormatFS(p); opErr != nil {
				return
			}
			if f, opErr = b.CreateFS(p, "/smallwrites"); opErr != nil {
				return
			}
			opErr = b.FS.Checkpoint(p)
		})
		sys.Eng.Run()
		if opErr != nil {
			return out, opErr
		}

		// Each op writes its own 4 KB record; the shared index is safe
		// under the cooperative scheduler.
		var next int
		workload.FixedOps(sys.Eng, outstanding, out.Ops, func(p *sim.Proc, _ int, _ *rand.Rand) int {
			i := next
			next++
			err := b.DurableWrite(p, f, int64(i)*int64(out.RecSize), nvFill(out.RecSize, byte(i)))
			if err != nil && opErr == nil {
				opErr = err
			}
			return out.RecSize
		})
		if opErr != nil {
			return out, opErr
		}

		// Quiesce and verify: every acknowledged record must read back.
		sys.Eng.Spawn("verify", func(p *sim.Proc) {
			if err := b.DrainNVRAM(p); err != nil && opErr == nil {
				opErr = err
			}
			for i := 0; i < out.Ops; i++ {
				got, err := b.FSRead(p, f, int64(i)*int64(out.RecSize), out.RecSize)
				if err != nil {
					if opErr == nil {
						opErr = err
					}
					return
				}
				if !bytes.Equal(got, nvFill(out.RecSize, byte(i))) && opErr == nil {
					opErr = fmt.Errorf("raidii: smallwrite %s: record %d lost or corrupt", label, i)
				}
			}
		})
		sys.Eng.Run()
		if opErr != nil {
			return out, opErr
		}

		if staged {
			out.Staged = latencyStats(sys.Eng, "small-write")
			st := b.NVRAMStats()
			out.Commits = st.Log.Commits
			out.CommitRecords = st.Log.CommitRecords
			out.Degraded = st.Log.Degraded
		} else {
			out.Unstaged = latencyStats(sys.Eng, "small-write")
		}
	}
	return out, nil
}

// DoubleFaultTimelineResult reports a RAID-6 board riding out two
// overlapping whole-disk failures: the bandwidth timeline across both
// events, correctness of every byte served while double-degraded, and the
// recovered fraction of healthy bandwidth after both rebuilds.
type DoubleFaultTimelineResult struct {
	Fig          *Figure
	FirstFailAt  time.Duration
	SecondFailAt time.Duration

	HealthyMBps        float64 // before the first failure
	DoubleDegradedMBps float64 // after the second failure
	PostRebuildMBps    float64
	RecoveredFrac      float64 // PostRebuild / Healthy

	RebuildDuration time.Duration // both sequential rebuilds, wall clock
	DegradedReads   uint64
	DataIntact      bool // double-degraded and post-rebuild read-backs matched
}

// DoubleFaultTimeline scripts the double-failure scenario RAID-6 exists
// for (§2.1's parity discussion taken one failure further): two disks of a
// 16-disk Level-6 board fail 1 s apart under streaming 1 MB reads.  The
// run verifies a seeded region byte-for-byte while both failures are
// outstanding, hot-rebuilds each disk onto a spare, verifies again, and
// reports per-250 ms bandwidth across the whole event.  Identical plans
// yield byte-identical traces.
func DoubleFaultTimeline() (DoubleFaultTimelineResult, error) {
	const (
		firstFail  = 2 * time.Second
		secondFail = 3 * time.Second
		failA      = 3
		failB      = 9
	)
	out := DoubleFaultTimelineResult{FirstFailAt: firstFail, SecondFailAt: secondFail}
	cfg := server.Fig8Config()
	cfg.DiskSpec.Cylinders = 64 // small disks keep the two rebuilds short
	cfg.RAIDLevel = raid.Level6
	cfg.Faults = fault.Plan{}.
		DiskFailAt(firstFail, 0, failA).
		DiskFailAt(secondFail, 0, failB)
	sys, err := server.New(cfg)
	if err != nil {
		return out, err
	}
	defer sys.Eng.Shutdown()
	attachProbe("doublefault", sys.Eng)
	b := sys.Boards[0]
	space := b.Array.Sectors()
	const size = 1 << 20
	const align = int64(size / 512)

	// Seed a region with known bytes so correctness under failure is
	// checked against ground truth, not just against the array's own
	// parity.  Whole aligned stripes take the full-stripe write path, so
	// seeding stays well clear of the first scripted failure.
	seedSecs := b.Array.DataDisks() * b.Array.StripeUnitSectors() * 4
	seedBytes := seedSecs * 512
	seed := nvFill(seedBytes, 1)
	var opErr error
	var seedEnd time.Duration
	// The seed proc and the streaming workload share one engine run: the
	// fault plan's events are already scheduled on the absolute clock, so a
	// separate seeding run would drain them before the stream starts.
	sys.Eng.Spawn("seed", func(p *sim.Proc) {
		if err := b.Array.Write(p, 0, seed); err != nil && opErr == nil {
			opErr = err
		}
		seedEnd = time.Duration(sim.Duration(p.Now()))
	})

	// The streaming phase spans both failures: per-bucket byte counts give
	// the bandwidth timeline.
	const bucket = 250 * time.Millisecond
	var bucketBytes [32]uint64
	res := workload.FixedOps(sys.Eng, outstanding, 64, func(p *sim.Proc, _ int, rng *rand.Rand) int {
		off := workload.RandomAligned(rng, space-align, align)
		if err := b.HardwareRead(p, off, size); err != nil && opErr == nil {
			opErr = err
		}
		if i := int(time.Duration(p.Now()) / bucket); i < len(bucketBytes) {
			bucketBytes[i] += size
		}
		return size
	})
	if opErr != nil {
		return out, opErr
	}
	if seedEnd >= firstFail {
		return out, fmt.Errorf("raidii: doublefault: seeding ran past the first failure (%v)", seedEnd)
	}
	if b.Array.Lost() {
		return out, fmt.Errorf("raidii: doublefault: two failures latched a Level-6 array as failed")
	}

	// Every byte served while both failures are outstanding must be
	// correct — the P+Q solve, not zeros.
	intact := true
	sys.Eng.Spawn("verify-degraded", func(p *sim.Proc) {
		got, err := b.Array.Read(p, 0, seedSecs)
		if err != nil {
			opErr = err
			return
		}
		intact = bytes.Equal(got, seed)
	})
	sys.Eng.Run()
	if opErr != nil {
		return out, opErr
	}
	if !intact {
		return out, fmt.Errorf("raidii: doublefault: double-degraded read returned wrong bytes")
	}
	if !b.Array.Failed(failA) || !b.Array.Failed(failB) {
		return out, fmt.Errorf("raidii: doublefault: scripted failures did not escalate to the array")
	}

	// Hot-rebuild both disks, one after the other: the first rebuild runs
	// with the second failure still outstanding.
	rebuildStart := sys.Eng.Now()
	for _, idx := range []int{failA, failB} {
		rb, err := b.ReplaceDisk(idx)
		if err != nil {
			return out, err
		}
		sys.Eng.Spawn("rebuild-wait", func(p *sim.Proc) {
			if _, werr := rb.Wait(p); werr != nil && opErr == nil {
				opErr = werr
			}
		})
		sys.Eng.Run()
		if opErr != nil {
			return out, opErr
		}
	}
	out.RebuildDuration = time.Duration(sim.Duration(sys.Eng.Now() - rebuildStart))

	// Post-rebuild: the array is healthy again; measure recovered
	// bandwidth and verify the seeded region one last time.
	start := sys.Eng.Now()
	post := workload.FixedOps(sys.Eng, outstanding, 24, func(p *sim.Proc, _ int, rng *rand.Rand) int {
		off := workload.RandomAligned(rng, space-align, align)
		if err := b.HardwareRead(p, off, size); err != nil && opErr == nil {
			opErr = err
		}
		return size
	})
	post.Elapsed = sim.Duration(sys.Eng.Now() - start)
	if opErr != nil {
		return out, opErr
	}
	out.PostRebuildMBps = post.MBps()
	sys.Eng.Spawn("verify-healthy", func(p *sim.Proc) {
		got, err := b.Array.Read(p, 0, seedSecs)
		if err != nil {
			opErr = err
			return
		}
		intact = intact && bytes.Equal(got, seed)
		if bad := b.Array.CheckParity(p); bad != 0 && opErr == nil {
			opErr = fmt.Errorf("raidii: doublefault: %d inconsistent stripes after both rebuilds", bad)
		}
	})
	sys.Eng.Run()
	if opErr != nil {
		return out, opErr
	}
	if !intact {
		return out, fmt.Errorf("raidii: doublefault: post-rebuild read returned wrong bytes")
	}
	out.DataIntact = true

	fig := metrics.NewFigure("Double fault timeline: two overlapping disk failures (RAID-6)", "ms", "MB/s")
	series := fig.AddSeries("1 MB random reads")
	var preBytes, dblBytes uint64
	var preDur, dblDur time.Duration
	for i, n := range bucketBytes {
		end := time.Duration(i+1) * bucket
		if time.Duration(res.Elapsed) < end-bucket {
			break
		}
		series.Add(float64(end.Milliseconds()), float64(n)/bucket.Seconds()/1e6)
		switch {
		case end <= firstFail:
			preBytes += n
			preDur += bucket
		case end > secondFail:
			dblBytes += n
			dblDur += bucket
		}
	}
	out.Fig = fig
	if preDur > 0 {
		out.HealthyMBps = float64(preBytes) / preDur.Seconds() / 1e6
	}
	if dblDur > 0 {
		out.DoubleDegradedMBps = float64(dblBytes) / dblDur.Seconds() / 1e6
	}
	if out.HealthyMBps > 0 {
		out.RecoveredFrac = out.PostRebuildMBps / out.HealthyMBps
	}
	out.DegradedReads = b.Array.Stats().DegradedReads
	return out, nil
}
