package ether

import (
	"errors"
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/sim"
	"raidii/internal/trace"
)

func TestThroughputAroundOneMBps(t *testing.T) {
	e := sim.New()
	seg := New(e, "eth0", DefaultConfig())
	const n = 1 << 20
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		if _, err := seg.Send(p, n); err != nil {
			t.Error(err)
		}
	})
	end = e.Run()
	rate := float64(n) / end.Seconds() / 1e6
	if rate < 0.7 || rate > 1.25 {
		t.Fatalf("ethernet rate = %.2f MB/s, want ~1 (10 Mb/s wire)", rate)
	}
}

func TestPacketTimeAboutHalfMillisecond(t *testing.T) {
	// The paper: "an Ethernet packet takes approximately 0.5 millisecond".
	e := sim.New()
	seg := New(e, "eth0", DefaultConfig())
	pt := seg.PacketTime()
	if pt < sim.Duration(4e5) || pt > sim.Duration(2e6) {
		t.Fatalf("packet time = %v, want roughly 0.5-1.5 ms", pt)
	}
}

func TestSharedWireContention(t *testing.T) {
	e := sim.New()
	seg := New(e, "eth0", DefaultConfig())
	rec := trace.Attach(e, trace.Config{})
	g := sim.NewGroup(e)
	for i := 0; i < 3; i++ {
		g.Go("s", func(p *sim.Proc) error {
			_, err := seg.Send(p, 300<<10)
			return err
		})
	}
	end := e.Run()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	rate := float64(900<<10) / end.Seconds() / 1e6
	if rate > 1.25 {
		t.Fatalf("aggregate %.2f exceeds wire rate", rate)
	}
	if u := rec.Resources()[0].UtilizationAt(end); u < 0.9 { // the segment's one resource: its wire
		t.Fatalf("wire utilization %.2f should be ~1 under load", u)
	}
}

// TestFrameCalibration pins the serial MTU framing: a send costs one
// per-frame overhead plus wire time per MTU, so elapsed time scales with
// the frame count, not just the byte count.
func TestFrameCalibration(t *testing.T) {
	cfg := DefaultConfig()
	elapsed := func(n int) time.Duration {
		e := sim.New()
		seg := New(e, "eth0", cfg)
		e.Spawn("p", func(p *sim.Proc) {
			if _, err := seg.Send(p, n); err != nil {
				t.Error(err)
			}
		})
		return time.Duration(e.Run())
	}
	one := elapsed(cfg.MTU)
	three := elapsed(3 * cfg.MTU)
	if three != 3*one {
		t.Fatalf("3 full frames took %v, want exactly 3x one frame (%v)", three, one)
	}
	// A short frame still pays the fixed per-packet overhead.
	if short := elapsed(64); short < cfg.PerPacket {
		t.Fatalf("64-byte frame took %v, less than the %v per-packet overhead", short, cfg.PerPacket)
	}
	// One frame lands in the paper's ~0.5 ms-per-packet regime.
	if one < 400*time.Microsecond || one > 2*time.Millisecond {
		t.Fatalf("one MTU frame took %v, want ~0.5-2 ms", one)
	}
}

// TestDownWireFailsTyped covers the Ethernet link-down fault: the send
// fails with fault.ErrLinkDown, delivers nothing, and recovers when the
// wire comes back.
func TestDownWireFailsTyped(t *testing.T) {
	e := sim.New()
	seg := New(e, "eth0", DefaultConfig())
	e.Spawn("p", func(p *sim.Proc) {
		seg.Down = true
		n, err := seg.Send(p, 8<<10)
		if !errors.Is(err, fault.ErrLinkDown) {
			t.Errorf("err = %v, want fault.ErrLinkDown", err)
		}
		if n != 0 {
			t.Errorf("down wire delivered %d bytes", n)
		}
		if !fault.Retryable(err) {
			t.Error("link-down must be retryable")
		}
		seg.Down = false
		if n, err := seg.Send(p, 8<<10); err != nil || n != 8<<10 {
			t.Errorf("after link-up: n=%d err=%v", n, err)
		}
	})
	e.Run()
}

// TestFrameLossReportsDeliveredBytes covers periodic loss: the send fails
// with fault.ErrPacketLost after the frames before the drop were delivered,
// so a caller can resume past them.
func TestFrameLossReportsDeliveredBytes(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	seg := New(e, "eth0", cfg)
	e.Spawn("p", func(p *sim.Proc) {
		seg.LossEvery = 3
		n, err := seg.Send(p, 5*cfg.MTU)
		if !errors.Is(err, fault.ErrPacketLost) {
			t.Errorf("err = %v, want fault.ErrPacketLost", err)
		}
		if n != 2*cfg.MTU {
			t.Errorf("delivered %d bytes before the third frame dropped, want %d", n, 2*cfg.MTU)
		}
		seg.LossEvery = 0
		if n, err := seg.Send(p, 5*cfg.MTU); err != nil || n != 5*cfg.MTU {
			t.Errorf("after loss cleared: n=%d err=%v", n, err)
		}
	})
	e.Run()
}
