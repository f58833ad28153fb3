package host

import (
	"testing"
	"time"

	"raidii/internal/sim"
)

// TestRAIDIDataPathCeiling reproduces the paper's central motivating
// number: moving I/O data through the Sun 4/280 (DMA in + copy to user
// space + cache interference) saturates around 2.3 MB/s.
func TestRAIDIDataPathCeiling(t *testing.T) {
	e := sim.New()
	h := New(e, Sun4280())
	const n = 8 << 20
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		// Pipeline DMA and copy the way the kernel does, chunk by chunk.
		g := sim.NewGroup(e)
		for off := 0; off < n; off += 256 << 10 {
			g.Go("chunk", func(q *sim.Proc) error {
				h.DMAIn(q, 256<<10)
				h.CopyAsync(q, 256<<10)
				return nil
			})
		}
		_ = g.Wait(p)
		end = p.Now()
	})
	e.Run()
	rate := float64(n) / end.Seconds() / 1e6
	if rate < 2.0 || rate > 2.6 {
		t.Fatalf("RAID-I style data path = %.2f MB/s, want ~2.3", rate)
	}
}

func TestBackplaneSaturation(t *testing.T) {
	// Raw DMA with no copies is limited by the ~9 MB/s VME backplane.
	e := sim.New()
	h := New(e, Sun4280())
	const n = 8 << 20
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		h.DMAIn(p, n)
		end = p.Now()
	})
	e.Run()
	rate := float64(n) / end.Seconds() / 1e6
	if rate < 8 || rate > 9.3 {
		t.Fatalf("raw DMA = %.2f MB/s, want ~9 (backplane)", rate)
	}
}

func TestCopyHoldsCPU(t *testing.T) {
	e := sim.New()
	h := New(e, Sun4280())
	var cpuBusyDuringCopy bool
	e.Spawn("copier", func(p *sim.Proc) { h.Copy(p, 1<<20) })
	e.Spawn("probe", func(p *sim.Proc) {
		p.Wait(10 * time.Millisecond)
		cpuBusyDuringCopy = h.cpu.Busy() > 0
	})
	e.Run()
	if !cpuBusyDuringCopy {
		t.Fatal("CPU should be held during a programmed copy")
	}
}

func TestPerIOSerializesOnCPU(t *testing.T) {
	e := sim.New()
	h := New(e, Sun4280RAIDII())
	g := sim.NewGroup(e)
	const ops = 100
	for i := 0; i < ops; i++ {
		g.Go("io", func(p *sim.Proc) error {
			h.PerIO(p)
			return nil
		})
	}
	end := e.Run()
	want := sim.Time(ops * int64(h.Cfg.PerIOOverhead))
	if end != want {
		t.Fatalf("end = %v, want %v (serialized per-IO cost)", end, want)
	}
}

func TestRAIDIIHostCheaperPerIO(t *testing.T) {
	// RAID-I's completions also copy the data through host memory; its
	// total host cost per small I/O exceeds RAID-II's fixed overhead even
	// though the raw driver constants are close (Table 2: 67% vs 78%
	// delivered).
	raidI := Sun4280()
	copyTime := sim.BytesDuration(4096*raidI.CopyCrossings, raidI.MemBusMBps)
	if Sun4280RAIDII().PerIOOverhead >= raidI.PerIOOverhead+copyTime {
		t.Fatal("RAID-II total host cost per I/O should be below RAID-I's")
	}
}

func TestSPARCstationClientCopyBound(t *testing.T) {
	// A user-level library doing copies on the SPARCstation should land
	// near the observed ~3.2 MB/s.
	e := sim.New()
	h := New(e, SPARCstation10())
	const n = 4 << 20
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		h.CopyAsync(p, n)
		end = p.Now()
	})
	e.Run()
	rate := float64(n) / end.Seconds() / 1e6
	if rate < 2.9 || rate > 3.5 {
		t.Fatalf("client copy path = %.2f MB/s, want ~3.2", rate)
	}
}

func TestCPUWork(t *testing.T) {
	e := sim.New()
	h := New(e, Sun4280())
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) { h.CPUWork(p, 4*time.Millisecond) })
	end = e.Run()
	if end != sim.Time(4*time.Millisecond) {
		t.Fatalf("end = %v", end)
	}
}

// TestCPUHeldSumsEveryHold: copies, per-I/O costs and CPU work queue on the
// one CPU from time zero, so it is held for the whole run, and CPUHeld must
// say so exactly, hand-offs between queued holders included.
func TestCPUHeldSumsEveryHold(t *testing.T) {
	e := sim.New()
	h := New(e, Sun4280())
	for i := 0; i < 3; i++ {
		e.Spawn("copy", func(p *sim.Proc) { h.Copy(p, 64<<10) })
		e.Spawn("io", h.PerIO)
		e.Spawn("work", func(p *sim.Proc) { h.CPUWork(p, time.Millisecond) })
	}
	if end := e.Run(); h.CPUHeld() != sim.Duration(end) {
		t.Fatalf("CPU held %v over a run that kept it busy for %v", h.CPUHeld(), sim.Duration(end))
	}
}
