package raidii

import (
	"math/rand"
	"time"

	"raidii/internal/fault"
	"raidii/internal/metrics"
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
// after the spare is swapped in.
func RebuildUnderLoad() (RebuildUnderLoadResult, error) {
	var out RebuildUnderLoadResult
	sys, err := server.New(server.Fig8Config())
	if err != nil {
		return out, err
	}
	defer sys.Eng.Shutdown()
	attachProbe("rebuild-load", sys.Eng)
	b := sys.Boards[0]
	space := b.Array.Sectors()
	const size = 1 << 20
	const align = int64(size / 512)

	measure := func() (float64, error) {
		start := sys.Eng.Now()
		var opErr error
		res := workload.FixedOps(sys.Eng, outstanding, 24, func(p *sim.Proc, _ int, rng *rand.Rand) int {
			off := workload.RandomAligned(rng, space-align, align)
			if err := b.HardwareRead(p, off, size); err != nil && opErr == nil {
				opErr = err
			}
			return size
		})
		res.Elapsed = sim.Duration(sys.Eng.Now() - start)
		return res.MBps(), opErr
	}

	if out.HealthyMBps, err = measure(); err != nil {
		return out, err
	}

	const failIdx = 3
	if err := b.Array.FailDisk(failIdx); err != nil {
		return out, err
	}
	b.Disks[failIdx].Drive.Fail()
	if out.DegradedMBps, err = measure(); err != nil {
		return out, err
	}

	// Replace the disk and run foreground reads while the rebuild streams in
	// the background; both contend for the surviving disks and strings.
	phaseStart := sys.Eng.Now()
	rb, err := b.ReplaceDisk(failIdx)
	if err != nil {
		return out, err
	}
	var fgBytes uint64
	var fgEnd sim.Time
	g := sim.NewGroup(sys.Eng)
	for w := 0; w < outstanding; w++ {
		rng := rand.New(rand.NewSource(int64(7919*w + 3)))
		g.Go("fg-read", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				off := workload.RandomAligned(rng, space-align, align)
				if rerr := b.HardwareRead(p, off, size); rerr != nil && err == nil {
					err = rerr
				}
				fgBytes += size
				if p.Now() > fgEnd {
					fgEnd = p.Now()
				}
			}
		})
	}
	var rebEnd sim.Time
	sys.Eng.Spawn("rebuild-wait", func(p *sim.Proc) {
		var werr error
		out.RebuildStripes, werr = rb.Wait(p)
		if err == nil {
			err = werr
		}
		rebEnd = p.Now()
	})
	sys.Eng.Run()
	if err != nil {
		return out, err
	}
	out.RebuildingMBps = float64(fgBytes) / fgEnd.Sub(phaseStart).Seconds() / 1e6
	out.RebuildDuration = time.Duration(rebEnd.Sub(phaseStart))
	rebuilt := float64(out.RebuildStripes) * float64(b.Array.StripeUnitSectors()) * 512
	out.RebuildMBps = rebuilt / out.RebuildDuration.Seconds() / 1e6

	if out.PostRebuildMBps, err = measure(); err != nil {
		return out, err
	}
	return out, nil
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
	sys, err := server.New(cfg)
	if err != nil {
		return out, err
	}
	defer sys.Eng.Shutdown()
	attachProbe("fault-timeline", sys.Eng)
	b := sys.Boards[0]
	space := b.Array.Sectors()
	const size = 1 << 20
	const align = int64(size / 512)

	// Per-interval bandwidth accounting: each completed op credits its bytes
	// to the 250 ms bucket it finished in.
	const bucket = 250 * time.Millisecond
	var bucketBytes [12]uint64
	var opErr error
	res := workload.FixedOps(sys.Eng, outstanding, 56, func(p *sim.Proc, _ int, rng *rand.Rand) int {
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

	fig := metrics.NewFigure("Fault timeline: disk failure under streaming reads", "ms", "MB/s")
	series := fig.AddSeries("1 MB random reads")
	var preBytes, postBytes uint64
	var preDur, postDur time.Duration
	for i, n := range bucketBytes {
		end := time.Duration(i+1) * bucket
		if time.Duration(res.Elapsed) < end-bucket {
			break
		}
		series.Add(float64(end.Milliseconds()), float64(n)/bucket.Seconds()/1e6)
		if end <= failAt {
			preBytes += n
			preDur += bucket
		} else {
			postBytes += n
			postDur += bucket
		}
	}
	out.Fig = fig
	if preDur > 0 {
		out.HealthyMBps = float64(preBytes) / preDur.Seconds() / 1e6
	}
	if postDur > 0 {
		out.DegradedMBps = float64(postBytes) / postDur.Seconds() / 1e6
	}
	st := b.Array.Stats()
	out.DeviceErrors = st.DeviceErrors
	out.DiskFailures = st.DiskFailures
	return out, nil
}
