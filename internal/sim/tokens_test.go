package sim

import (
	"testing"
	"time"
)

func TestTokensBasicAcquireRelease(t *testing.T) {
	e := New()
	tk := NewServer(e, "dram", 100)
	e.Spawn("p", func(p *Proc) {
		tk.AcquireN(p, 60)
		if tk.Available() != 40 || tk.Busy() != 60 {
			t.Errorf("avail=%d inuse=%d", tk.Available(), tk.Busy())
		}
		tk.ReleaseN(60)
		if tk.Available() != 100 {
			t.Errorf("avail after release = %d", tk.Available())
		}
	})
	e.Run()
}

func TestTokensBlockUntilAvailable(t *testing.T) {
	e := New()
	tk := NewServer(e, "dram", 100)
	var grabbedAt Time
	e.Spawn("holder", func(p *Proc) {
		tk.AcquireN(p, 80)
		p.Wait(time.Second)
		tk.ReleaseN(80)
	})
	e.Spawn("waiter", func(p *Proc) {
		tk.AcquireN(p, 50) // needs the holder to release
		grabbedAt = p.Now()
		tk.ReleaseN(50)
	})
	e.Run()
	if grabbedAt != Time(time.Second) {
		t.Fatalf("waiter acquired at %v, want 1s", grabbedAt)
	}
}

func TestTokensFIFOOrder(t *testing.T) {
	e := New()
	tk := NewServer(e, "dram", 10)
	var order []int
	e.Spawn("holder", func(p *Proc) {
		tk.AcquireN(p, 10)
		p.Wait(time.Second)
		tk.ReleaseN(10)
	})
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			tk.AcquireN(p, 5)
			order = append(order, i)
			p.Wait(time.Millisecond)
			tk.ReleaseN(5)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("admission order %v not FIFO", order)
		}
	}
}

func TestTokensHeadOfLineBlocking(t *testing.T) {
	// A large waiter at the head must not be starved by small requests
	// that could fit: admission is strictly FIFO.
	e := New()
	tk := NewServer(e, "dram", 10)
	var order []string
	e.Spawn("holder", func(p *Proc) {
		tk.AcquireN(p, 8)
		p.Wait(time.Second)
		tk.ReleaseN(8)
	})
	e.Spawn("big", func(p *Proc) {
		p.Wait(time.Millisecond)
		tk.AcquireN(p, 10)
		order = append(order, "big")
		tk.ReleaseN(10)
	})
	e.Spawn("small", func(p *Proc) {
		p.Wait(2 * time.Millisecond)
		tk.AcquireN(p, 2) // would fit now, but big is queued ahead
		order = append(order, "small")
		tk.ReleaseN(2)
	})
	e.Run()
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("order = %v, want big first", order)
	}
}

func TestTokensOversizeRequestPanics(t *testing.T) {
	e := New()
	tk := NewServer(e, "dram", 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tk.AcquireN(nil, 11)
}

func TestTokensOverReleasePanics(t *testing.T) {
	e := New()
	tk := NewServer(e, "dram", 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tk.ReleaseN(1)
}

func TestGoexitInProcessDoesNotWedgeEngine(t *testing.T) {
	// A process that exits via runtime.Goexit (e.g. t.Fatal in a test
	// helper) must still hand control back to the engine.
	e := New()
	done := false
	e.Spawn("fatal-ish", func(p *Proc) {
		p.Wait(time.Millisecond)
		// Simulate t.Fatal: run deferred handlers and kill the goroutine.
		defer func() { done = true }()
		panicFreeGoexit()
	})
	e.Spawn("after", func(p *Proc) { p.Wait(2 * time.Millisecond) })
	end := e.Run() // must not hang
	if end < Time(2*time.Millisecond) {
		t.Fatalf("engine stopped early at %v", end)
	}
	if !done {
		t.Fatal("deferred handlers did not run")
	}
}
