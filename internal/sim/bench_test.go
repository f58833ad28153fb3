package sim

import (
	"fmt"
	"testing"
	"time"
)

// Microbenchmarks for the engine hot path.  CI's perf job runs these with
// -benchmem -count=5 on every change (advisory — host time is
// machine-dependent); DESIGN.md §15 describes what they measure.
//
// Each benchmark drives whole engine runs so the numbers include everything a
// real simulation pays per event: queue push/pop and the process-resumption
// protocol.

// BenchmarkEngineTimerWheel measures pure timer traffic: procs processes,
// each re-scheduling itself every simulated millisecond.  One iteration is
// one timer event.  procs=1 exercises the single-runnable-process resume
// fast path; procs=64 forces a full scheduler handoff on every event.
func BenchmarkEngineTimerWheel(b *testing.B) {
	for _, procs := range []int{1, 64} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			e := New()
			for i := 0; i < procs; i++ {
				e.Spawn("tick", func(p *Proc) {
					for {
						p.Wait(time.Millisecond)
					}
				})
			}
			// Warm up: dispatch the initial spawn events and let every
			// backing structure reach steady-state capacity.
			e.RunUntil(Time(2 * time.Millisecond))
			steps := b.N/procs + 1
			b.ReportAllocs()
			b.ResetTimer()
			e.RunUntil(e.Now() + Time(steps)*Time(time.Millisecond))
			b.StopTimer()
			e.Shutdown()
		})
	}
}

// BenchmarkResourceContention measures the park/hand-off path through a
// contended FIFO Server: 16 processes sharing 2 slots, 1 ms of service each.
// One iteration is one completed Use (acquire, wait, release), most of which
// queue and are resumed by the releasing process.
func BenchmarkResourceContention(b *testing.B) {
	e := New()
	srv := NewServer(e, "s", 2)
	for i := 0; i < 16; i++ {
		e.Spawn("worker", func(p *Proc) {
			for {
				srv.Use(p, time.Millisecond)
			}
		})
	}
	e.RunUntil(Time(20 * time.Millisecond)) // warm up queues to capacity
	// Two slots at 1 ms per use complete 2 uses per simulated ms.
	steps := b.N/2 + 1
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(e.Now() + Time(steps)*Time(time.Millisecond))
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkSpawnDispatch measures process startup: one iteration spawns a
// process that immediately finishes.
func BenchmarkSpawnDispatch(b *testing.B) {
	e := New()
	noop := func(p *Proc) {}
	// Warm up the engine and (post-PR-9) the process free list.
	for i := 0; i < 64; i++ {
		e.Spawn("warm", noop)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Spawn("noop", noop)
		e.Run()
	}
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkPathSend measures a chunked transfer: one iteration is one
// Path.Send of 32 chunks over three links (pathSendRig), about 100 events.
func BenchmarkPathSend(b *testing.B) {
	e, period := pathSendRig()
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(e.Now() + Time(b.N)*period)
	b.StopTimer()
	e.Shutdown()
}

// TestSteadyStateZeroAlloc pins the PR-9 claim that steady-state scheduling
// allocates nothing: timer re-schedules, contended server hand-offs, and
// pooled re-spawns must all run allocation-free once warm.  (Spawning from a
// cold engine, growing a queue past its high-water mark, and attaching
// tracers may allocate; the steady state may not.)
func TestSteadyStateZeroAlloc(t *testing.T) {
	t.Run("timer-wheel", func(t *testing.T) {
		e := New()
		e.Spawn("tick", func(p *Proc) {
			for {
				p.Wait(time.Millisecond)
			}
		})
		e.RunUntil(Time(5 * time.Millisecond))
		next := e.Now()
		allocs := testing.AllocsPerRun(200, func() {
			next += Time(time.Millisecond)
			e.RunUntil(next)
		})
		e.Shutdown()
		if allocs != 0 {
			t.Fatalf("timer wheel steady state allocates %.1f objects per ms, want 0", allocs)
		}
	})
	t.Run("contended-server", func(t *testing.T) {
		e := New()
		srv := NewServer(e, "s", 2)
		for i := 0; i < 8; i++ {
			e.Spawn("worker", func(p *Proc) {
				for {
					srv.Use(p, time.Millisecond)
				}
			})
		}
		e.RunUntil(Time(20 * time.Millisecond))
		next := e.Now()
		allocs := testing.AllocsPerRun(200, func() {
			next += Time(time.Millisecond)
			e.RunUntil(next)
		})
		e.Shutdown()
		if allocs != 0 {
			t.Fatalf("contended server steady state allocates %.1f objects per ms, want 0", allocs)
		}
	})
	t.Run("pooled-spawn", func(t *testing.T) {
		e := New()
		noop := func(p *Proc) {}
		for i := 0; i < 64; i++ {
			e.Spawn("warm", noop)
		}
		e.Run()
		allocs := testing.AllocsPerRun(200, func() {
			e.Spawn("noop", noop)
			e.Run()
		})
		e.Shutdown()
		if allocs != 0 {
			t.Fatalf("pooled spawn allocates %.1f objects per spawn, want 0", allocs)
		}
	})
}
