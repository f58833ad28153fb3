package raidii

import (
	"math/rand"
	"time"

	"raidii/internal/client"
	"raidii/internal/fault"
	"raidii/internal/host"
	"raidii/internal/metrics"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/workload"
)

// This file holds the network fault experiment: a scripted Ultranet link
// flap under client read load, with the client library's retry/backoff
// carrying the requests across the outage.

// NetworkFaultTimelineResult pairs the per-interval client bandwidth
// timeline with the outage window and the retry work it cost.
type NetworkFaultTimelineResult struct {
	Fig    *Figure
	DownAt time.Duration // ring goes down (absolute simulated time)
	UpAt   time.Duration // ring comes back

	PreFaultMBps  float64 // mean bandwidth in whole buckets before DownAt
	DuringMBps    float64 // mean bandwidth while the ring is down
	RecoveredMBps float64 // mean bandwidth in whole buckets after UpAt
	Retries       uint64  // client request attempts resent

	// Per-request latency across the whole run, fault window included: the
	// p999 tail carries the retry/backoff cost of reads caught in the flap.
	ReadLatency LatencyStats
}

// NetworkFaultTimeline runs a scripted network fault — the Ultranet ring
// drops for half a second mid-stream and comes back — under concurrent
// client reads, and reports delivered client bandwidth in 250 ms intervals
// across the flap.  Bandwidth collapses while the link is down, the client
// library's deterministic backoff keeps retrying, and on link-up the
// resumed transfers recover to the pre-fault rate.  Identical plans yield
// byte-identical traces.
func NetworkFaultTimeline() (NetworkFaultTimelineResult, error) {
	const (
		downAt = 2 * time.Second // fault times are absolute; FS setup ends ~0.7 s
		upAt   = 2500 * time.Millisecond
		size   = 1 << 20
		fileMB = 6
		ops    = 48
	)
	out := NetworkFaultTimelineResult{DownAt: downAt, UpAt: upAt}
	cfg := server.Fig8Config()
	cfg.Faults = fault.Plan{}.
		LinkDownAt(downAt, fault.PortRing, 0).
		LinkUpAt(upAt, fault.PortRing, 0)
	cfg.ClientRetry = fault.RetryPolicy{
		MaxRetries: 32,
		Backoff:    2 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	}
	sys, err := server.New(cfg)
	if err != nil {
		return out, err
	}
	defer sys.Eng.Shutdown()
	attachProbe("net-fault-timeline", sys.Eng)
	telemetry.Attach(sys.Eng)
	b := sys.Boards[0]

	// A client whose memory system is not the bottleneck, so the timeline
	// shows the network path rather than SPARCstation copy limits.
	ws := client.NewWorkstation(sys, "netclient", host.Config{
		Name: "fast-client", MemBusMBps: 200, BackplaneMBps: 100,
		PerIOOverhead: 100000, CopyCrossings: 1, DMACrossings: 1,
	})

	// Setup and workload share one engine run: the scripted fault events sit
	// in the same queue, so a separate setup Run would drain them early.
	// Workers gate on setupDone instead.
	var f *client.File
	setupDone := sim.NewEvent(sys.Eng)
	var measStart time.Duration
	sys.Eng.Spawn("setup", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			panic(err)
		}
		ff, err := b.CreateFS(p, "/stream")
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 1<<20)
		for i := 0; i < fileMB; i++ {
			if _, err := ff.File.WriteAt(p, buf, int64(i)<<20); err != nil {
				panic(err)
			}
		}
		if err := b.FS.Sync(p); err != nil {
			panic(err)
		}
		f, err = ws.Open(p, 0, "/stream")
		if err != nil {
			panic(err)
		}
		measStart = time.Duration(p.Now())
		setupDone.Signal()
	})

	// Per-interval accounting on absolute time: each completed read credits
	// its bytes to the 250 ms bucket it finished in.  The re-read working
	// set keeps setup short, so whole pre-fault buckets exist before DownAt.
	const bucket = 250 * time.Millisecond
	var bucketBytes [24]uint64
	var retired, lastEnd time.Duration
	for w := 0; w < outstanding; w++ {
		rng := rand.New(rand.NewSource(int64(7919*w + 3)))
		sys.Eng.Spawn("net-worker", func(p *sim.Proc) {
			setupDone.Wait(p)
			for i := 0; i < ops/outstanding; i++ {
				off := workload.RandomAligned(rng, int64(fileMB), 1) << 20
				if _, err := f.Read(p, off, size); err != nil {
					panic(err)
				}
				if i := int(time.Duration(p.Now()) / bucket); i < len(bucketBytes) {
					bucketBytes[i] += size
				}
				if time.Duration(p.Now()) > lastEnd {
					lastEnd = time.Duration(p.Now())
				}
			}
		})
	}
	sys.Eng.Run()
	retired = lastEnd

	fig := metrics.NewFigure("Network fault timeline: Ultranet link flap under client reads", "ms", "MB/s")
	series := fig.AddSeries("1 MB client reads")
	var preBytes, duringBytes, postBytes uint64
	var preDur, duringDur, postDur time.Duration
	for i, n := range bucketBytes {
		start := time.Duration(i) * bucket
		end := start + bucket
		if start < measStart {
			continue // partial bucket: workload was not yet running
		}
		if retired < start {
			break
		}
		series.Add(float64(end.Milliseconds()), float64(n)/bucket.Seconds()/1e6)
		switch {
		case end <= downAt:
			preBytes += n
			preDur += bucket
		case start >= downAt && end <= upAt:
			duringBytes += n
			duringDur += bucket
		case start >= upAt && retired >= end:
			postBytes += n
			postDur += bucket
		}
	}
	out.Fig = fig
	if preDur > 0 {
		out.PreFaultMBps = float64(preBytes) / preDur.Seconds() / 1e6
	}
	if duringDur > 0 {
		out.DuringMBps = float64(duringBytes) / duringDur.Seconds() / 1e6
	}
	if postDur > 0 {
		out.RecoveredMBps = float64(postBytes) / postDur.Seconds() / 1e6
	}
	out.Retries = ws.Stats().Retries
	out.ReadLatency = latencyStats(sys.Eng, "client-read")
	return out, nil
}
