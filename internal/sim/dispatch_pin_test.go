package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The dispatch-order pin.  One scripted scene uses every way control can
// change hands between simulated processes — equal-timestamp timers, a
// contended Server handing its slot over on Release, n-unit waiters admitted
// out of a shared pool, an Event waking several waiters, Group.Go/Wait, a
// one-slot pipeline handing off through an Event, spawn inside spawn, a
// recycled shell receiving a stale wake-up, Step interleaved with RunUntil —
// and logs, through the Tracer hooks, which process ran at which simulated
// time.  The log must equal testdata/dispatch_pin.txt, which was recorded
// from the channel-rendezvous engine before the transport under park and
// dispatch became a coroutine switch.  It names the first diverging dispatch
// where the raidbench suite would only show a changed float.
//
// Regenerate (only for a change that is meant to move dispatch order):
//
//	go test ./internal/sim/ -run TestDispatchOrderPin -update
var updatePin = flag.Bool("update", false, "rewrite testdata/dispatch_pin.txt from the current engine")

// pinTracer logs every hook as "sim-ns proc-id proc-name what".
type pinTracer struct {
	e     *Engine
	lines []string
}

func (t *pinTracer) add(p *Proc, format string, args ...any) {
	id, name := uint64(0), "-"
	if p != nil {
		id, name = p.id, p.name
	}
	t.lines = append(t.lines, fmt.Sprintf("%8d %3d %-8s ", int64(t.e.now), id, name)+fmt.Sprintf(format, args...))
}

func (t *pinTracer) ProcStart(p *Proc)                        { t.add(p, "start") }
func (t *pinTracer) ProcFinish(p *Proc)                       { t.add(p, "finish") }
func (t *pinTracer) ResourceCreate(name string, capacity int) {}
func (t *pinTracer) ResourceWait(name string, p *Proc, depth int) {
	t.add(p, "wait %s depth=%d", name, depth)
}
func (t *pinTracer) ResourceAcquire(name string, p *Proc, units int, waited Duration, queued bool) {
	t.add(p, "acquire %s units=%d waited=%d queued=%v", name, units, int64(waited), queued)
}
func (t *pinTracer) ResourceRelease(name string, units int) {
	t.add(nil, "release %s units=%d", name, units)
}
func (t *pinTracer) Span(p *Proc, cat, name string, start Time) {
	t.add(p, "%s %s", cat, name)
}

// ran marks "p is executing now": scene processes call it after every
// blocking call returns, so the log carries the dispatch sequence.
func ran(p *Proc, label string) { p.Span("ran", label)() }

// dispatchScene runs the scripted scene and returns its log.
func dispatchScene(t *testing.T) []string {
	const us = time.Microsecond
	e := New()
	log := &pinTracer{e: e}
	e.SetTracer(log)
	note := func(format string, args ...any) { log.add(nil, format, args...) }

	// Equal-timestamp timers: FIFO by scheduling order at every tick.
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("tmr%d", i), func(p *Proc) {
			for k := 0; k < 3; k++ {
				p.Wait(400 * us)
				ran(p, "tick")
			}
		})
	}
	// A process whose own wake-up is the queue head resumes itself.
	e.Spawn("solo", func(p *Proc) {
		for k := 0; k < 4; k++ {
			p.Wait(7 * us)
			ran(p, "self")
		}
	})
	// Server contention: the slot passes to the queue head on Release.
	srv := NewServer(e, "srv", 1)
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("use%d", i), func(p *Proc) {
			srv.Use(p, 300*us)
			ran(p, "served")
		})
	}
	// Units: one ReleaseN admits two waiters and leaves the third queued.
	tk := NewServer(e, "pool", 10)
	e.Spawn("holder", func(p *Proc) {
		tk.AcquireN(p, 8)
		p.Wait(900 * us)
		tk.ReleaseN(8)
		ran(p, "released")
	})
	for i, n := range []int{4, 3, 5} {
		e.Spawn(fmt.Sprintf("tok%d", i), func(p *Proc) {
			tk.AcquireN(p, n)
			ran(p, "admitted")
			p.Wait(200 * us)
			tk.ReleaseN(n)
		})
	}
	// Event.Signal wakes several waiters at one timestamp.
	ev := NewEvent(e)
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("evw%d", i), func(p *Proc) {
			ev.Wait(p)
			ran(p, "signalled")
		})
	}
	e.At(Time(1300*us), "signal", func(p *Proc) {
		ev.Signal()
		ran(p, "signal")
	})
	// Group.Go/Wait with spawn inside spawn; two children finish together.
	e.Spawn("forker", func(p *Proc) {
		g := NewGroup(e)
		for i, d := range []Duration{500 * us, 200 * us, 500 * us} {
			g.Go(fmt.Sprintf("kid%d", i), func(c *Proc) error {
				c.Wait(d)
				ran(c, "kid")
				if i == 1 {
					inner := c.Fork()
					inner.Go("grand", func(gc *Proc) error {
						gc.Wait(50 * us)
						ran(gc, "grand")
						e.Spawn("great", func(gg *Proc) { ran(gg, "great") })
						return nil
					})
					_ = inner.Wait(c)
					ran(c, "joined-inner")
				}
				return nil
			})
		}
		_ = g.Wait(p)
		ran(p, "joined")
	})
	// A one-slot pipeline (recorded from the deleted sim.Store): the full
	// slot parks the producer on an Event, the consumer's take wakes it at
	// the same timestamp, and the consumer leaves once the closed pipeline
	// is drained.
	var slot []int
	var space *Event // what a producer blocked on the full slot waits on
	closed := false
	e.Spawn("produce", func(p *Proc) {
		for i := 0; i < 3; i++ {
			if len(slot) == 1 {
				space = NewEvent(e)
				space.Wait(p)
			}
			slot = append(slot, i)
			ran(p, "put")
		}
		p.Wait(100 * us)
		closed = true
	})
	e.Spawn("consume", func(p *Proc) {
		for {
			p.Wait(60 * us)
			if len(slot) == 0 {
				if !closed {
					t.Error("scene's consumer found the open pipeline empty")
				}
				ran(p, "closed")
				return
			}
			slot = slot[:0]
			if space != nil {
				space.Signal()
				space = nil
			}
			ran(p, "got")
		}
	})
	// Two processes that outlive the scene, parked when it ends.
	e.Spawn("forever", func(p *Proc) { NewEvent(e).Wait(p) })
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Wait(1100 * us)
			ran(p, "tock")
		}
	})

	note("rununtil 1ms")
	e.RunUntil(Time(1000 * us))
	note("step x12")
	for i := 0; i < 12; i++ {
		if !e.Step() {
			t.Fatal("scene drained during Step phase")
		}
		note("stepped executed=%d", e.EventsExecuted())
	}
	note("rununtil 3ms")
	e.RunUntil(Time(3000 * us))

	// Stale wake-ups.  stale1 and stale2 each leave an event behind and
	// finish; stale1's shell is recycled onto "reuse" before the event
	// fires (ID mismatch), stale2's is still idle when its event fires
	// (finished shell).  Neither may run anything.
	leave := func(d Duration) func(*Proc) {
		return func(p *Proc) {
			e.schedule(p, e.now.Add(d))
			ran(p, "left-event")
		}
	}
	stale1 := e.Spawn("stale1", leave(300*us))
	note("step")
	e.Step()
	reuse := e.Spawn("reuse", func(p *Proc) {
		p.Wait(600 * us)
		ran(p, "reuse")
	})
	if reuse != stale1 {
		t.Fatal("scene did not recycle stale1's shell onto reuse")
	}
	note("rununtil 4ms")
	e.RunUntil(Time(4000 * us))
	e.Spawn("stale2", leave(200*us))
	note("run")
	e.RunUntil(Time(5000 * us))
	note("end executed=%d now=%d live=%d", e.EventsExecuted(), int64(e.Now()), e.Live())
	e.SetTracer(nil)
	e.Shutdown()
	return log.lines
}

func TestDispatchOrderPin(t *testing.T) {
	got := dispatchScene(t)
	path := filepath.Join("testdata", "dispatch_pin.txt")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "<end of log>", "<end of log>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("dispatch order diverges at line %d:\n  recorded: %s\n  now:      %s", i+1, w, g)
		}
	}
}
