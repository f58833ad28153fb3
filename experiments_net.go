package raidii

import (
	"math/rand"
	"time"

	"raidii/internal/client"
	"raidii/internal/fault"
	"raidii/internal/host"
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
	err := withSystem("net-fault-timeline", cfg, func(r *rig, sys *server.System) error {
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
		// Workers gate on setupDone instead.  The re-read working set keeps
		// setup short, so whole pre-fault buckets exist before DownAt.
		var f *client.File
		setupDone := sim.NewEvent(sys.Eng)
		tl := newTimeline(24)
		r.spawn("setup", func(p *sim.Proc) error {
			if err := b.FormatFS(p); err != nil {
				return err
			}
			ff, err := b.CreateFS(p, "/stream")
			if err != nil {
				return err
			}
			buf := make([]byte, 1<<20)
			for i := 0; i < fileMB; i++ {
				if _, err := ff.File.WriteAt(p, buf, int64(i)<<20); err != nil {
					return err
				}
			}
			if err := b.FS.Sync(p); err != nil {
				return err
			}
			if f, err = ws.Open(p, 0, "/stream"); err != nil {
				return err
			}
			tl.from = time.Duration(p.Now())
			setupDone.Signal()
			return nil
		})

		r.workers("net-worker", func(p *sim.Proc, rng *rand.Rand) error {
			setupDone.Wait(p)
			for i := 0; i < ops/outstanding; i++ {
				off := workload.RandomAligned(rng, int64(fileMB), 1) << 20
				if _, err := f.Read(p, off, size); err != nil {
					return err
				}
				tl.credit(p.Now(), size)
			}
			return nil
		})
		if _, err := r.run(); err != nil {
			return err
		}

		out.Fig = newFigure("Network fault timeline: Ultranet link flap under client reads", "ms", "MB/s")
		tl.series(out.Fig.AddSeries("1 MB client reads"))
		out.PreFaultMBps = tl.mean(0, downAt)
		out.DuringMBps = tl.mean(downAt, upAt)
		out.RecoveredMBps = tl.mean(upAt, tl.retired)
		out.Retries = ws.Stats().Retries
		out.ReadLatency = telemetry.From(sys.Eng).Summary("client-read")
		return nil
	})
	return out, err
}
