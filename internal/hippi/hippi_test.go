package hippi

import (
	"errors"
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/sim"
	"raidii/internal/trace"
	"raidii/internal/xbus"
)

func boardEndpoint(b *xbus.Board, cfg Config) *Endpoint {
	return &Endpoint{Name: "xb", Out: b.HIPPIS.Out(), In: b.HIPPID.In(), Setup: cfg.PacketSetup}
}

// loopbackRate measures Figure 6's experiment at one request size.
func loopbackRate(reqBytes int) float64 {
	e := sim.New()
	cfg := DefaultConfig()
	b := xbus.New(e, "xb", xbus.DefaultConfig())
	ep := boardEndpoint(b, cfg)
	const total = 16 << 20
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		for sent := 0; sent < total; sent += reqBytes {
			Loopback(p, ep, cfg, reqBytes)
		}
		end = p.Now()
	})
	e.Run()
	return float64(total) / end.Seconds() / 1e6
}

func TestLoopbackLargeRequestsNear38MBps(t *testing.T) {
	r := loopbackRate(1 << 20)
	if r < 36 || r > 40 {
		t.Fatalf("1 MB loopback = %.1f MB/s, want ~38.5", r)
	}
}

func TestLoopbackSmallRequestsSetupDominated(t *testing.T) {
	// A 16 KB packet: 1.1 ms setup vs ~0.4 ms of wire time; throughput
	// collapses, exactly the left side of Figure 6.
	r := loopbackRate(16 << 10)
	if r > 12 {
		t.Fatalf("16 KB loopback = %.1f MB/s, want setup-dominated (<12)", r)
	}
	big := loopbackRate(1 << 20)
	if big < 3*r {
		t.Fatalf("large requests (%.1f) should dwarf small (%.1f)", big, r)
	}
}

func TestLoopbackBothDirectionsSimultaneously(t *testing.T) {
	// "the XBUS and HIPPI boards support 38 megabytes/second in both
	// directions": the loop stream keeps the source (out) and destination
	// (in) ports busy at the same time, each carrying the full data rate —
	// chunks pipeline through the two ports rather than serializing.
	e := sim.New()
	cfg := DefaultConfig()
	b := xbus.New(e, "xb", xbus.DefaultConfig())
	rec := trace.Attach(e, trace.Config{})
	ep := boardEndpoint(b, cfg)
	const total = 16 << 20
	e.Spawn("loop", func(p *sim.Proc) {
		for sent := 0; sent < total; sent += 1 << 20 {
			Loopback(p, ep, cfg, 1<<20)
		}
	})
	end := e.Run()
	rate := float64(total) / end.Seconds() / 1e6
	if rate < 36 {
		t.Fatalf("loop rate = %.1f MB/s, want ~38.5", rate)
	}
	if b.HIPPIS.BytesMoved() != total || b.HIPPID.BytesMoved() != total {
		t.Fatalf("each direction should carry all bytes: out=%d in=%d",
			b.HIPPIS.BytesMoved(), b.HIPPID.BytesMoved())
	}
	// Both ports busy most of the time implies concurrent directions.
	util := map[string]float64{}
	for _, r := range rec.Resources() {
		util[r.Name] = r.UtilizationAt(end)
	}
	if util["xb:hippis"] < 0.85 || util["xb:hippid"] < 0.85 {
		t.Fatalf("port utilizations out=%.2f in=%.2f; directions not concurrent",
			util["xb:hippis"], util["xb:hippid"])
	}
}

func TestUltranetSendBetweenEndpoints(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	u := NewUltranet(e, cfg)
	b := xbus.New(e, "xb", xbus.DefaultConfig())
	server := boardEndpoint(b, cfg)
	clientNIC := sim.NewLink(e, "client-nic", 80, 0)
	client := &Endpoint{Name: "client", Out: clientNIC, In: clientNIC, Setup: 200 * time.Microsecond}
	const n = 8 << 20
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		_, _ = u.Send(p, server, client, n)
		end = p.Now()
	})
	e.Run()
	rate := float64(n) / end.Seconds() / 1e6
	// Limited by the server's 40 MB/s HIPPI source port.
	if rate < 34 || rate > 41 {
		t.Fatalf("ultranet transfer = %.1f MB/s, want ~38", rate)
	}
}

func TestUltranetPacketization(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	cfg.MaxPacket = 1 << 20
	u := NewUltranet(e, cfg)
	nic := sim.NewLink(e, "nic", 100, 0)
	a := &Endpoint{Name: "a", Out: nic, In: nic, Setup: cfg.PacketSetup}
	bEp := &Endpoint{Name: "b", Out: nic, In: nic, Setup: cfg.PacketSetup}
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		_, _ = u.Send(p, a, bEp, 4<<20) // 4 packets -> 4 setups
		end = p.Now()
	})
	e.Run()
	if end < sim.Time(4*int64(cfg.PacketSetup)) {
		t.Fatalf("end %v should include 4 packet setups", end)
	}
}

// netPair builds two plain endpoints on private 100 MB/s links, the
// minimal topology for exercising the fault paths.
func netPair(e *sim.Engine) (*Endpoint, *Endpoint) {
	mk := func(name string) *Endpoint {
		l := sim.NewLink(e, name, 100, 0)
		return &Endpoint{Name: name, Out: l, In: l}
	}
	return mk("src"), mk("dst")
}

func TestDownRingFailsTyped(t *testing.T) {
	e := sim.New()
	u := NewUltranet(e, DefaultConfig())
	from, to := netPair(e)
	e.Spawn("p", func(p *sim.Proc) {
		u.Down = true
		n, err := u.Send(p, from, to, 1<<20)
		if !errors.Is(err, fault.ErrLinkDown) {
			t.Errorf("err = %v, want fault.ErrLinkDown", err)
		}
		if n != 0 {
			t.Errorf("down ring delivered %d bytes", n)
		}
		if !fault.Retryable(err) {
			t.Error("link-down must be retryable")
		}
		// Detection is not free: the sender burns the down-detect timeout.
		if p.Now() < sim.Time(int64(u.cfg.DownDetect)) {
			t.Errorf("failure at %v, before the %v down-detect window", p.Now(), u.cfg.DownDetect)
		}
		u.Down = false
		if n, err := u.Send(p, from, to, 1<<20); err != nil || n != 1<<20 {
			t.Errorf("after ring up: n=%d err=%v", n, err)
		}
	})
	e.Run()
}

func TestDownEndpointFailsTyped(t *testing.T) {
	e := sim.New()
	u := NewUltranet(e, DefaultConfig())
	from, to := netPair(e)
	e.Spawn("p", func(p *sim.Proc) {
		to.Down = true
		if n, err := u.Send(p, from, to, 1<<20); !errors.Is(err, fault.ErrLinkDown) || n != 0 {
			t.Errorf("down receiver: n=%d err=%v, want 0, ErrLinkDown", n, err)
		}
		to.Down = false
		if n, err := u.Send(p, from, to, 1<<20); err != nil || n != 1<<20 {
			t.Errorf("after endpoint up: n=%d err=%v", n, err)
		}
	})
	e.Run()
}

// TestPacketLossReportsDeliveredBytes: the ring drops the third packet of a
// five-packet transfer, so Send fails with ErrPacketLost after reporting
// two packets delivered — the resume point for a retrying caller.
func TestPacketLossReportsDeliveredBytes(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	cfg.MaxPacket = 1 << 20
	u := NewUltranet(e, cfg)
	from, to := netPair(e)
	e.Spawn("p", func(p *sim.Proc) {
		u.LossEvery = 3
		n, err := u.Send(p, from, to, 5<<20)
		if !errors.Is(err, fault.ErrPacketLost) {
			t.Errorf("err = %v, want fault.ErrPacketLost", err)
		}
		if n != 2<<20 {
			t.Errorf("delivered %d bytes before the drop, want %d", n, 2<<20)
		}
		if !fault.Retryable(err) {
			t.Error("packet loss must be retryable")
		}
		u.LossEvery = 0
		if n, err := u.Send(p, from, to, 5<<20); err != nil || n != 5<<20 {
			t.Errorf("after loss cleared: n=%d err=%v", n, err)
		}
	})
	e.Run()
}

// TestEndpointLossCountsPerPort: loss periods tick on the endpoint's own
// packet counter, so a lossy NIC drops its own n-th packet regardless of
// ring traffic.
func TestEndpointLossCountsPerPort(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	cfg.MaxPacket = 1 << 20
	u := NewUltranet(e, cfg)
	from, to := netPair(e)
	e.Spawn("p", func(p *sim.Proc) {
		to.LossEvery = 4
		n, err := u.Send(p, from, to, 6<<20)
		if !errors.Is(err, fault.ErrPacketLost) || n != 3<<20 {
			t.Errorf("lossy NIC: n=%d err=%v, want 3 MB then ErrPacketLost", n, err)
		}
	})
	e.Run()
}

// TestStallRideOutVersusTimeout: a stall shorter than the sender's stall
// timeout is ridden out transparently; a longer one fails typed with
// ErrNetTimeout and delivers nothing past the stall.
func TestStallRideOutVersusTimeout(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	u := NewUltranet(e, cfg)
	from, to := netPair(e)
	e.Spawn("p", func(p *sim.Proc) {
		// Short stall: under StallTimeout, the send just takes longer.
		short := cfg.StallTimeout / 2
		to.StallUntil(p.Now().Add(sim.Duration(short)))
		begin := p.Now()
		n, err := u.Send(p, from, to, 1<<20)
		if err != nil || n != 1<<20 {
			t.Fatalf("short stall: n=%d err=%v, want full delivery", n, err)
		}
		if took := time.Duration(p.Now().Sub(begin)); took < short {
			t.Errorf("send took %v, did not ride out the %v stall", took, short)
		}
		// Long stall: the sender gives up after StallTimeout.
		to.StallUntil(p.Now().Add(sim.Duration(10 * cfg.StallTimeout)))
		begin = p.Now()
		n, err = u.Send(p, from, to, 1<<20)
		if !errors.Is(err, fault.ErrNetTimeout) || n != 0 {
			t.Errorf("long stall: n=%d err=%v, want 0, ErrNetTimeout", n, err)
		}
		if took := time.Duration(p.Now().Sub(begin)); took != cfg.StallTimeout {
			t.Errorf("timeout after %v, want exactly the %v stall timeout", took, cfg.StallTimeout)
		}
		if !fault.Retryable(err) {
			t.Error("net timeout must be retryable")
		}
	})
	e.Run()
}

func TestRingIsShared(t *testing.T) {
	// Two transfers between distinct endpoint pairs share the ring.
	e := sim.New()
	cfg := DefaultConfig()
	cfg.RingMBps = 10 // make the ring the bottleneck
	u := NewUltranet(e, cfg)
	mk := func(name string) *Endpoint {
		l := sim.NewLink(e, name, 100, 0)
		return &Endpoint{Name: name, Out: l, In: l}
	}
	g := sim.NewGroup(e)
	for i := 0; i < 2; i++ {
		from, to := mk("f"), mk("t")
		g.Go("xfer", func(p *sim.Proc) error {
			_, err := u.Send(p, from, to, 5<<20)
			return err
		})
	}
	end := e.Run()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	rate := float64(10<<20) / end.Seconds() / 1e6
	if rate > 10.5 {
		t.Fatalf("aggregate %.1f exceeds shared 10 MB/s ring", rate)
	}
}
