package xbus

import (
	"bytes"
	"testing"

	"raidii/internal/sim"
)

func TestPortDirectionalRates(t *testing.T) {
	e := sim.New()
	b := New(e, "xb", DefaultConfig())
	const n = 1 << 20
	var inEnd, outEnd sim.Time
	e.Spawn("in", func(p *sim.Proc) {
		sim.Path{b.VME[0].In()}.Send(p, n, 0)
		inEnd = p.Now()
	})
	e.Run()
	e2 := sim.New()
	b2 := New(e2, "xb", DefaultConfig())
	e2.Spawn("out", func(p *sim.Proc) {
		sim.Path{b2.VME[0].Out()}.Send(p, n, 0)
		outEnd = p.Now()
	})
	e2.Run()
	inRate := float64(n) / inEnd.Seconds() / 1e6
	outRate := float64(n) / outEnd.Seconds() / 1e6
	if inRate < 6.3 || inRate > 7.0 {
		t.Fatalf("VME read (in) rate = %.2f, want ~6.9", inRate)
	}
	if outRate < 5.4 || outRate > 6.0 {
		t.Fatalf("VME write (out) rate = %.2f, want ~5.9", outRate)
	}
}

func TestMemoryAggregatesPorts(t *testing.T) {
	// Four VME ports reading concurrently: aggregate limited by the sum of
	// port rates (27.6), well under the 160 MB/s crossbar.
	e := sim.New()
	b := New(e, "xb", DefaultConfig())
	const n = 4 << 20
	g := sim.NewGroup(e)
	for i := 0; i < 4; i++ {
		hop := b.VME[i].In()
		g.Go("rd", func(p *sim.Proc) error {
			sim.Path{hop}.Send(p, n, 0)
			return nil
		})
	}
	end := e.Run()
	rate := float64(4*n) / end.Seconds() / 1e6
	if rate < 25 || rate > 28.5 {
		t.Fatalf("aggregate VME in rate = %.2f, want ~27.6", rate)
	}
}

func TestHIPPIPortsAtFortyMBps(t *testing.T) {
	e := sim.New()
	b := New(e, "xb", DefaultConfig())
	const n = 8 << 20
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		sim.Path{b.HIPPIS.Out()}.Send(p, n, 0)
		end = p.Now()
	})
	e.Run()
	rate := float64(n) / end.Seconds() / 1e6
	if rate < 37 || rate > 40.5 {
		t.Fatalf("HIPPIS rate = %.2f, want ~40", rate)
	}
}

func TestXORCorrectness(t *testing.T) {
	e := sim.New()
	b := New(e, "xb", DefaultConfig())
	a := []byte{1, 2, 3, 4}
	c := []byte{4, 3, 2, 1}
	d := []byte{0xff, 0, 0xff, 0}
	var got []byte
	e.Spawn("p", func(p *sim.Proc) { got = b.XOR(p, a, c, d) })
	e.Run()
	want := []byte{1 ^ 4 ^ 0xff, 2 ^ 3, 3 ^ 2 ^ 0xff, 4 ^ 1}
	if !bytes.Equal(got, want) {
		t.Fatalf("XOR = %v, want %v", got, want)
	}
	if b.ParityOps() == 0 {
		t.Fatal("parity op not counted")
	}
}

func TestXORChargesParityEngineTime(t *testing.T) {
	e := sim.New()
	b := New(e, "xb", DefaultConfig())
	srcs := make([][]byte, 3)
	for i := range srcs {
		srcs[i] = make([]byte, 1<<20)
	}
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		b.XOR(p, srcs...)
		end = p.Now()
	})
	e.Run()
	// 3 MB in + 1 MB out through a 40 MB/s engine: ~100 ms.
	sec := end.Seconds()
	if sec < 0.08 || sec > 0.14 {
		t.Fatalf("parity of 3x1MB took %.3fs, want ~0.1s", sec)
	}
}

func TestXORIntoAccumulates(t *testing.T) {
	e := sim.New()
	b := New(e, "xb", DefaultConfig())
	dst := []byte{1, 1, 1}
	e.Spawn("p", func(p *sim.Proc) {
		b.XORInto(p, dst, []byte{2, 2, 2})
		b.XORInto(p, dst, []byte{4, 4, 4})
	})
	e.Run()
	if !bytes.Equal(dst, []byte{7, 7, 7}) {
		t.Fatalf("dst = %v", dst)
	}
}

func TestXORLengthMismatchPanics(t *testing.T) {
	e := sim.New()
	b := New(e, "xb", DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	// Length validation happens before any simulated transfer, so no
	// process context is needed to trigger it.
	b.XOR(nil, []byte{1}, []byte{1, 2})
}

func TestBufferPoolBlocksWhenExhausted(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	cfg.MemoryBytes = 1 << 20
	b := New(e, "xb", cfg)
	var secondAt sim.Time
	e.Spawn("a", func(p *sim.Proc) {
		b.Buffers.AcquireN(p, 1<<20)
		p.Wait(sim.Duration(5e6)) // 5 ms
		b.Buffers.ReleaseN(1 << 20)
	})
	e.Spawn("b", func(p *sim.Proc) {
		b.Buffers.AcquireN(p, 512<<10)
		secondAt = p.Now()
		b.Buffers.ReleaseN(512 << 10)
	})
	e.Run()
	if secondAt != sim.Time(5e6) {
		t.Fatalf("second allocation at %v, want 5ms", secondAt)
	}
}

func TestHostTransferUsesHostPort(t *testing.T) {
	e := sim.New()
	b := New(e, "xb", DefaultConfig())
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		b.HostTransfer(p, 1<<20, true)
		end = p.Now()
	})
	e.Run()
	rate := float64(1<<20) / end.Seconds() / 1e6
	if rate > b.Cfg.HostVMEMBps*1.05 {
		t.Fatalf("host transfer rate %.2f exceeds host VME link", rate)
	}
	if b.Host.BytesMoved() != 1<<20 {
		t.Fatalf("host port moved %d", b.Host.BytesMoved())
	}
}

// TestFoldedComputationIsOneOp: sources folded in one at a time, from
// separate processes, then the result pass, give XORTo's bytes through the
// same port passes — no slower than XORTo (a source's memory crossing may
// overlap the next source's port pass) and no faster than the port allows —
// and count one parity computation, not one per pass.
func TestFoldedComputationIsOneOp(t *testing.T) {
	srcs := [][]byte{bytes.Repeat([]byte{1}, 1<<20), bytes.Repeat([]byte{2}, 1<<20), bytes.Repeat([]byte{4}, 1<<20)}
	e := sim.New()
	b := New(e, "xb", DefaultConfig())
	var want []byte
	var whole sim.Time
	e.Spawn("to", func(p *sim.Proc) {
		want = b.XOR(p, srcs...)
		whole = p.Now()
	})
	e.Run()

	e = sim.New()
	b = New(e, "xb", DefaultConfig())
	acc := make([]byte, 1<<20)
	g := sim.NewGroup(e)
	for _, s := range srcs {
		g.Go("fold", func(p *sim.Proc) error {
			b.Fold(p, acc, s)
			return nil
		})
	}
	var folded sim.Time
	e.Spawn("result", func(p *sim.Proc) {
		if err := g.Wait(p); err != nil {
			t.Error(err)
		}
		b.Result(p, len(acc))
		folded = p.Now()
	})
	e.Run()
	if !bytes.Equal(acc, want) {
		t.Fatal("folded parity differs from XORTo's")
	}
	port := sim.Time(0).Add(sim.BytesDuration(4<<20, DefaultConfig().PortMBps))
	if folded > whole || folded < port {
		t.Fatalf("folded computation took %v, want between the port's %v and XORTo's %v", folded, port, whole)
	}
	if b.ParityOps() != 1 {
		t.Fatalf("ParityOps = %d after one folded computation, want 1", b.ParityOps())
	}
}
