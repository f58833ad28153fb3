package raidii

import (
	"math/rand"
	"time"

	"raidii/internal/fault"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/workload"
)

// This file holds the fault-injection experiments: degraded-mode and
// rebuild-under-load bandwidth (the cost of the paper's single-failure
// operating region), and a scripted fault timeline showing the array
// absorbing a disk failure mid-stream.

// RebuildUnderLoadResult reports foreground 1 MB random-read bandwidth
// through the four phases of a disk failure's lifetime, plus the rebuild
// itself.
type RebuildUnderLoadResult struct {
	HealthyMBps     float64
	DegradedMBps    float64
	RebuildingMBps  float64 // foreground reads while the hot rebuild runs
	PostRebuildMBps float64
	RebuildDuration time.Duration
	RebuildMBps     float64 // reconstruction rate onto the spare
	RebuildStripes  int64
}

// RebuildUnderLoad measures the Fig8 array's foreground read bandwidth
// healthy, degraded after a disk failure, while a background hot rebuild
// contends with the foreground traffic for the surviving spindles, and
// after the spare is swapped in.  The array is zero-filled first, so the
// rebuild is a whole-disk one.
func RebuildUnderLoad() (RebuildUnderLoadResult, error) {
	var out RebuildUnderLoadResult
	err := withSystem("rebuild-load", server.Fig8Config(), func(r *rig, sys *server.System) error {
		b := sys.Boards[0]
		if err := zeroFill(r, b, 0); err != nil {
			return err
		}
		measure := func(rate *float64) error {
			res, err := randomReads(r, b, 24, nil)
			*rate = res.MBps()
			return err
		}
		if err := measure(&out.HealthyMBps); err != nil {
			return err
		}

		const failIdx = 3
		if err := b.Array.FailDisk(failIdx); err != nil {
			return err
		}
		b.Disks[failIdx].Drive.Fail()
		if err := measure(&out.DegradedMBps); err != nil {
			return err
		}

		// Replace the disk and run foreground reads while the rebuild streams in
		// the background; both contend for the surviving disks and strings.
		phaseStart := sys.Eng.Now()
		rb, err := b.ReplaceDisk(failIdx)
		if err != nil {
			return err
		}
		const size = 1 << 20
		const align = int64(size / 512)
		space := b.Array.Sectors()
		var fgBytes int
		var fgEnd sim.Time
		r.workers("fg-read", func(p *sim.Proc, rng *rand.Rand) error {
			for i := 0; i < 8; i++ {
				off := workload.RandomAligned(rng, space-align, align)
				if err := b.HardwareRead(p, off, size); err != nil {
					return err
				}
				fgBytes += size
				if p.Now() > fgEnd {
					fgEnd = p.Now()
				}
			}
			return nil
		})
		var rebEnd sim.Time
		r.spawn("rebuild-wait", func(p *sim.Proc) (err error) {
			out.RebuildStripes, err = rb.Wait(p)
			rebEnd = p.Now()
			return err
		})
		if _, err := r.run(); err != nil {
			return err
		}
		out.RebuildingMBps = mbps(fgBytes, fgEnd.Sub(phaseStart))
		out.RebuildDuration = rebEnd.Sub(phaseStart)
		out.RebuildMBps = mbps(rebuiltBytes(b, out.RebuildStripes), out.RebuildDuration)

		return measure(&out.PostRebuildMBps)
	})
	return out, err
}

// FaultTimelineResult pairs the per-interval bandwidth timeline with the
// fault counters the run accumulated.
type FaultTimelineResult struct {
	Fig          *Figure
	FailAt       time.Duration
	DeviceErrors uint64
	DiskFailures uint64
	HealthyMBps  float64 // mean bandwidth before the failure
	DegradedMBps float64 // mean bandwidth after the failure
}

// FaultTimeline runs a scripted fault plan — one whole-disk failure partway
// through a streaming read — and reports the read bandwidth in 250 ms
// intervals across the event: the drop from healthy to degraded is the
// fault's visible cost, and identical plans yield byte-identical traces.
func FaultTimeline() (FaultTimelineResult, error) {
	const failAt = 1 * time.Second
	out := FaultTimelineResult{FailAt: failAt}
	cfg := server.Fig8Config()
	cfg.Faults = fault.Plan{}.DiskFailAt(failAt, 0, 3)
	err := withSystem("fault-timeline", cfg, func(r *rig, sys *server.System) error {
		b := sys.Boards[0]
		tl := newTimeline(12)
		_, err := randomReads(r, b, 56, tl)
		if err != nil {
			return err
		}
		tl.retired = time.Duration(sys.Eng.Now()) // the series runs to the end of the run, partial last bucket included
		out.Fig = newFigure("Fault timeline: disk failure under streaming reads", "ms", "MB/s")
		tl.series(out.Fig.AddSeries("1 MB random reads"))
		out.HealthyMBps = tl.mean(0, failAt)
		out.DegradedMBps = tl.mean(failAt, forever)
		st := b.Array.Stats()
		out.DeviceErrors = st.DeviceErrors
		out.DiskFailures = st.DiskFailures
		return nil
	})
	return out, err
}
