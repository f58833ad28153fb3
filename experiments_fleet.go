package raidii

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"raidii/internal/fault"
	"raidii/internal/hippi"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/workload"
	"raidii/internal/zebra"
)

// This file holds the fleet experiments: aggregate striped bandwidth versus
// server count, and a scripted whole-host kill under read load with the
// cross-server parity absorbing the outage.

// FleetScaling measures a single client's striped bandwidth against fleets
// of increasing size, through the public Cluster API.  Each point assembles
// serverCounts[i] paper-configuration hosts on one Ultranet ring, writes a
// file across them and reads it back; read bandwidth scales near-linearly
// with hosts (§2.1.2's "interleaving ... across several" taken to whole
// servers, §5.2) until the ring is the bottleneck.
func FleetScaling(serverCounts []int) (*Figure, error) {
	fig := newFigure("Fleet scaling: striped client bandwidth vs servers", "servers", "client MB/s")
	reads := fig.AddSeries("striped read")
	writes := fig.AddSeries("striped write")
	const total = 128 << 20
	for _, n := range serverCounts {
		cl, err := NewCluster(Fig8Geometry(), WithServers(n))
		if err != nil {
			return nil, err
		}
		err = scope(fmt.Sprintf("fleet/%dservers", n), cl.Fleet().Eng, func(*rig) error {
			_, err := cl.Simulate(func(t *ClusterTask) error {
				if err := t.FormatFS(); err != nil {
					return err
				}
				f, err := t.Create("stream")
				if err != nil {
					return err
				}
				// The client's data counts as stored once the servers' segment
				// writes land; include that drain in the write measurement,
				// matching Figure 8's LFS write accounting.
				start := t.Elapsed()
				if _, err := f.Write(0, make([]byte, total)); err != nil {
					return err
				}
				if err := t.Sync(); err != nil {
					return err
				}
				writes.Add(float64(n), mbps(total, t.Elapsed()-start))
				got, rDur, err := f.Read(0, total)
				if err != nil {
					return err
				}
				if len(got) != total {
					return fmt.Errorf("fleet read returned %d of %d bytes", len(got), total)
				}
				reads.Add(float64(n), mbps(total, rDur))
				return nil
			})
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// FleetKillTimelineResult pairs the per-interval striped read bandwidth
// timeline with the outage window and the repair work that followed.
type FleetKillTimelineResult struct {
	Fig    *Figure
	Server int           // which host the plan kills
	DownAt time.Duration // host goes down (absolute simulated time)
	UpAt   time.Duration // host comes back

	PreFaultMBps  float64 // mean bandwidth in whole buckets before DownAt
	DuringMBps    float64 // mean bandwidth while the host is down
	RecoveredMBps float64 // mean bandwidth in whole buckets after UpAt

	StaleFragments   int  // fragments the degraded write left stale on the dead host
	RebuiltFragments int  // fragments RebuildServer reconstructed from parity
	DataIntact       bool // full read-back matched after rebuild
}

// FleetKillTimeline runs a scripted whole-server kill — one of four hosts
// drops for a second mid-stream and comes back — under concurrent striped
// client reads, and reports delivered bandwidth in 250 ms intervals across
// the outage.  Every stripe touching the dead host is reconstructed from
// the surviving hosts' fragments and the rotating cross-server parity, so
// bandwidth dips rather than collapsing; a write issued during the outage
// goes degraded, and RebuildServer repairs the stale fragments once the
// host returns.  Identical plans yield byte-identical traces.
func FleetKillTimeline() (FleetKillTimelineResult, error) {
	const (
		victim   = 1
		downAt   = 4 * time.Second // fault times are absolute; fleet setup ends well before
		upAt     = 5 * time.Second
		runUntil = 8 * time.Second
		size     = 1 << 20
		fileMB   = 16
	)
	out := FleetKillTimelineResult{Server: victim, DownAt: downAt, UpAt: upAt}
	cfg := server.Fig8Config()
	cfg.Servers = 4
	cfg.Faults = fault.Plan{}.
		ServerDownAt(downAt, victim).
		ServerUpAt(upAt, victim)
	err := withFleet("fleet-kill-timeline", cfg, func(r *rig, fl *server.Fleet) error {
		telemetry.Attach(fl.Eng)
		ep := clusterClientEndpoint(fl, cfg)

		data := make([]byte, fileMB<<20)
		for i := range data {
			data[i] = byte(i * 31)
		}

		// Setup and workload share one engine run: the scripted ServerDown
		// events sit in the same queue, so a separate setup Run would drain
		// them early.  Workers gate on setupDone instead.
		setupDone := sim.NewEvent(fl.Eng)
		tl := newTimeline(40)
		var z *zebra.Store
		r.spawn("setup", func(p *sim.Proc) (err error) {
			if err := formatFleet(p, fl); err != nil {
				return err
			}
			// The store validates formatted boards, so it is built here rather
			// than before the run.
			if z, err = zebra.New(fl, ep, zebra.DefaultConfig()); err != nil {
				return err
			}
			if err := z.Create(p, "stream"); err != nil {
				return err
			}
			if err := z.Write(p, "stream", 0, data); err != nil {
				return err
			}
			if err := z.SyncAll(p); err != nil {
				return err
			}
			tl.from = time.Duration(p.Now())
			setupDone.Signal()
			return nil
		})

		r.workers("fleet-worker", func(p *sim.Proc, rng *rand.Rand) error {
			setupDone.Wait(p)
			buf := make([]byte, size) // each worker reads into its own buffer
			for time.Duration(p.Now()) < runUntil {
				off := workload.RandomAligned(rng, int64(fileMB), 1) << 20
				n, err := z.ReadInto(p, "stream", off, buf)
				if err != nil {
					return err
				}
				if !bytes.Equal(buf[:n], data[off:off+size]) {
					return fmt.Errorf("striped read at %d: %w", off, ErrDataMismatch)
				}
				tl.credit(p.Now(), size)
			}
			return nil
		})

		// Mid-outage, a client writes one stripe.  The dead host's fragment
		// cannot be stored — the write completes degraded and records the
		// fragment stale for the post-outage rebuild.  It rewrites the same
		// bytes, so the readers' verification stays valid throughout.
		r.spawn("degraded-writer", func(p *sim.Proc) error {
			setupDone.Wait(p)
			writeAt := downAt + (upAt-downAt)/2
			if now := time.Duration(p.Now()); now < writeAt {
				p.Wait(writeAt - now)
			}
			return z.Write(p, "stream", 0, data[:z.StripeBytes()])
		})
		if _, err := r.run(); err != nil {
			return err
		}

		out.Fig = newFigure("Fleet kill timeline: whole-host outage under striped reads", "ms", "MB/s")
		tl.series(out.Fig.AddSeries("1 MB striped reads"))
		out.PreFaultMBps = tl.mean(0, downAt)
		out.DuringMBps = tl.mean(downAt, upAt)
		out.RecoveredMBps = tl.mean(upAt, tl.retired)

		// The plan restored the host; repair the fragments the degraded write
		// left behind and prove the file is whole again.
		out.StaleFragments = z.StaleFragments(victim)
		return r.do("repair", func(p *sim.Proc) (err error) {
			if out.RebuiltFragments, err = z.RebuildServer(p, victim); err != nil {
				return err
			}
			got := make([]byte, len(data))
			n, err := z.ReadInto(p, "stream", 0, got)
			out.DataIntact = err == nil && bytes.Equal(got[:n], data)
			return err
		})
	})
	return out, err
}

// clusterClientEndpoint builds the Ultranet attachment the fleet
// experiments issue striped requests from — the same full-ring-speed client
// NewCluster registers.
func clusterClientEndpoint(fl *server.Fleet, cfg server.Config) *hippi.Endpoint {
	nic := sim.NewLink(fl.Eng, "fleet-client-nic", cfg.HIPPI.RingMBps, 0)
	ep := &hippi.Endpoint{Name: "fleet-client", Out: nic, In: nic, Setup: cfg.HIPPI.PacketSetup}
	fl.RegisterClientEndpoint(ep)
	return ep
}
