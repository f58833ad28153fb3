package raidii

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"raidii/internal/fault"
	"raidii/internal/raid"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// This file holds the robustness experiments added with NVRAM and the RAID-6
// array: small-write latency with and without battery-backed segment images,
// and a scripted double-disk-failure timeline.

// nvFill produces one small write's deterministic payload.
func nvFill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

// SmallWriteLatencyResult compares the per-request latency distribution of
// durable 4 KB writes on two otherwise identical machines: one whose LFS
// segment images are battery-backed NVRAM, one forced to seal an LFS
// segment before every acknowledgement.
type SmallWriteLatencyResult struct {
	Ops     int
	RecSize int

	Staged   LatencyStats // NVRAM: ack once the write is committed into the battery-backed open segment
	Unstaged LatencyStats // synchronous path: write through LFS and sync

	Waited uint64 // staged-run writes that waited for a segment image: the region was full
}

// SmallWriteLatency measures the latency a synchronous small write pays
// with and without NVRAM (§3.3's small-write problem moved up to the
// file-server level, following Baker et al.'s NVRAM write caching).  Both
// runs issue the same durable 4 KB writes; the staged run acknowledges once
// the write is committed into the open segment, whose image is in the 1 MB
// battery-backed region, the unstaged run seals a segment per write.  The
// region holds one 960 KB image, so a write that finds it full waits for
// its seal.  Every record is verified by read-back after a final drain, so
// the latency win is never bought with durability.
func SmallWriteLatency() (SmallWriteLatencyResult, error) {
	out := SmallWriteLatencyResult{Ops: 256, RecSize: 4 << 10}
	for _, staged := range []bool{true, false} {
		cfg := server.Fig8Config()
		label := "unstaged"
		if staged {
			cfg.NVRAMBytes = 1 << 20
			label = "staged"
		}
		err := withSystem("smallwrite/"+label, cfg, func(r *rig, sys *server.System) error {
			telemetry.Attach(sys.Eng)
			b := sys.Boards[0]

			var f *server.FSFile
			err := r.do("format", func(p *sim.Proc) (err error) {
				if err := b.FormatFS(p); err != nil {
					return err
				}
				if f, err = b.CreateFS(p, "/smallwrites"); err != nil {
					return err
				}
				return b.FS.Checkpoint(p)
			})
			if err != nil {
				return err
			}

			// Each op writes its own 4 KB record; the shared index is safe
			// under the cooperative scheduler.
			var next int
			_, err = r.fixedOps(outstanding, out.Ops, func(p *sim.Proc, _ int, _ *rand.Rand) (int, error) {
				i := next
				next++
				return out.RecSize, b.DurableWrite(p, f, int64(i)*int64(out.RecSize), nvFill(out.RecSize, byte(i)))
			})
			if err != nil {
				return err
			}

			// Quiesce and verify: every acknowledged record must read back.
			err = r.do("verify", func(p *sim.Proc) error {
				if err := b.DrainNVRAM(p); err != nil {
					return err
				}
				for i := 0; i < out.Ops; i++ {
					got, err := b.FSRead(p, f, int64(i)*int64(out.RecSize), out.RecSize)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, nvFill(out.RecSize, byte(i))) {
						return fmt.Errorf("record %d lost or corrupt: %w", i, ErrDataMismatch)
					}
				}
				return nil
			})
			if err != nil {
				return err
			}

			if staged {
				out.Staged = telemetry.From(sys.Eng).Summary("small-write")
				out.Waited = b.NVRAMStats().Log.Degraded
			} else {
				out.Unstaged = telemetry.From(sys.Eng).Summary("small-write")
			}
			return nil
		})
		if err != nil {
			return out, err
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
	err := withSystem("doublefault", cfg, func(r *rig, sys *server.System) error {
		b := sys.Boards[0]

		// Seed a region with known bytes so correctness under failure is
		// checked against ground truth, not just against the array's own
		// parity.  Whole aligned stripes take the full-stripe write path, so
		// seeding stays well clear of the first scripted failure.
		const seedStripes = 4
		seedSecs := b.Array.DataDisks() * b.Array.StripeUnitSectors() * seedStripes
		seed := nvFill(seedSecs*512, 1)
		verifySeed := func(p *sim.Proc, phase string) error {
			got, err := b.Array.Read(p, 0, seedSecs)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, seed) {
				return fmt.Errorf("%s read of the seeded region: %w", phase, ErrDataMismatch)
			}
			return nil
		}

		// The seed proc and the streaming workload share one engine run: the
		// fault plan's events are already scheduled on the absolute clock, so a
		// separate seeding run would drain them before the stream starts.
		var seedEnd time.Duration
		r.spawn("seed", func(p *sim.Proc) error {
			err := b.Array.Write(p, 0, seed)
			seedEnd = time.Duration(p.Now())
			return err
		})

		// The streaming phase spans both failures.
		tl := newTimeline(32)
		_, err := randomReads(r, b, 64, tl)
		if err != nil {
			return err
		}
		tl.retired = time.Duration(sys.Eng.Now()) // the series runs to the end of the run, partial last bucket included
		out.Fig = newFigure("Double fault timeline: two overlapping disk failures (RAID-6)", "ms", "MB/s")
		tl.series(out.Fig.AddSeries("1 MB random reads"))
		out.HealthyMBps = tl.mean(0, firstFail)
		out.DoubleDegradedMBps = tl.mean(secondFail, forever)
		if seedEnd >= firstFail {
			return fmt.Errorf("seeding ran past the first failure (%v)", seedEnd)
		}
		if b.Array.Lost() {
			return errors.New("two failures lost a Level-6 array")
		}

		// Every byte served while both failures are outstanding must be
		// correct — the P+Q solve, not zeros.
		err = r.do("verify-degraded", func(p *sim.Proc) error { return verifySeed(p, "double-degraded") })
		if err != nil {
			return err
		}
		if !b.Array.Failed(failA) || !b.Array.Failed(failB) {
			return errors.New("scripted failures did not escalate to the array")
		}

		// Zero-fill the rest of the array so both rebuilds are whole-disk ones.
		if err := zeroFill(r, b, seedStripes); err != nil {
			return err
		}

		// Hot-rebuild both disks, one after the other: the first rebuild runs
		// with the second failure still outstanding.
		rebuildStart := sys.Eng.Now()
		for _, idx := range []int{failA, failB} {
			rb, err := b.ReplaceDisk(idx)
			if err != nil {
				return err
			}
			err = r.do("rebuild-wait", func(p *sim.Proc) error {
				_, err := rb.Wait(p)
				return err
			})
			if err != nil {
				return err
			}
		}
		out.RebuildDuration = sys.Eng.Now().Sub(rebuildStart)

		// Post-rebuild: the array is healthy again; measure recovered
		// bandwidth and verify the seeded region one last time.
		post, err := randomReads(r, b, 24, nil)
		if err != nil {
			return err
		}
		out.PostRebuildMBps = post.MBps()
		err = r.do("verify-healthy", func(p *sim.Proc) error {
			if err := verifySeed(p, "post-rebuild"); err != nil {
				return err
			}
			if bad := b.Array.CheckParity(p); bad != 0 {
				return fmt.Errorf("%d inconsistent stripes after both rebuilds", bad)
			}
			return nil
		})
		if err != nil {
			return err
		}
		out.DataIntact = true
		if out.HealthyMBps > 0 {
			out.RecoveredFrac = out.PostRebuildMBps / out.HealthyMBps
		}
		out.DegradedReads = b.Array.Stats().DegradedReads
		return nil
	})
	return out, err
}
