package trace

import (
	"testing"
	"time"

	"raidii/internal/sim"
)

// BenchmarkTracedRun measures the full-event recording path: an engine with
// an Events:true Recorder attached runs a contended workload where every
// operation opens a span and acquires/releases a traced resource.  One
// iteration is one operation (one span record plus the wait/acquire/release
// counter samples it generates).  CI's perf job tracks this alongside the
// engine benchmarks (DESIGN.md §15).
func BenchmarkTracedRun(b *testing.B) {
	e := sim.New()
	Attach(e, Config{Label: "bench", Pid: 1, Events: true})
	srv := sim.NewServer(e, "srv", 4)
	for i := 0; i < 8; i++ {
		e.Spawn("worker", func(p *sim.Proc) {
			for {
				end := p.Span("bench", "op")
				srv.Use(p, time.Millisecond)
				end()
			}
		})
	}
	e.RunUntil(sim.Time(20 * time.Millisecond)) // reach steady-state contention
	// Four slots at 1 ms per op complete 4 ops per simulated ms.
	steps := b.N/4 + 1
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(e.Now() + sim.Time(steps)*sim.Time(time.Millisecond))
	b.StopTimer()
	e.Shutdown()
}

// TestTracedSteadyStateZeroAlloc pins the slab guarantee: with full-event
// recording on, steady-state tracing averages zero allocations per
// scheduling window.  Chunk allocations (one per slabChunk records) and
// occasional map growth are real but amortized below one per window;
// testing.AllocsPerRun's integer average floors them to zero, and any
// per-record allocation sneaking back into the hot path (closure captures,
// string keys, slice doubling) pushes the average to one or more and fails.
func TestTracedSteadyStateZeroAlloc(t *testing.T) {
	e := sim.New()
	Attach(e, Config{Label: "alloc", Pid: 1, Events: true})
	srv := sim.NewServer(e, "srv", 4)
	for i := 0; i < 8; i++ {
		e.Spawn("worker", func(p *sim.Proc) {
			for {
				end := p.Span("bench", "op")
				srv.Use(p, time.Millisecond)
				end()
			}
		})
	}
	e.RunUntil(sim.Time(20 * time.Millisecond)) // settle queues and span kinds
	window := sim.Duration(5 * time.Millisecond)
	avg := testing.AllocsPerRun(200, func() {
		e.RunUntil(e.Now().Add(window))
	})
	e.Shutdown()
	if avg != 0 {
		t.Fatalf("traced steady-state allocations per 5ms window = %v, want 0", avg)
	}
}
