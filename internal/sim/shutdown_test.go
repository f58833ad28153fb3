package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestShutdownStrandsNothing parks a process on every kind of wait, strands
// a chunked Path.Send's chunks behind a server nobody releases and a staged
// chunk at a gate that never fires, leaves one
// assignment spawned but never dispatched and a few finished shells idle in
// the pool, and requires Shutdown to account for all of them: Live drops to
// zero, each killed process's deferred functions run exactly once in
// creation order, the undispatched assignment never runs, nothing is
// dispatched afterwards, a second Shutdown does nothing, and no coroutine
// outlives the engine.
func TestShutdownStrandsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	var unwound []string
	parked := func(name string, wait func(p *Proc)) {
		e.Spawn(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			wait(p)
			t.Errorf("%s resumed past its wait", name)
		})
	}

	for i := 0; i < 3; i++ {
		e.Spawn("done", func(p *Proc) { p.Wait(time.Microsecond) }) // finishes; shell goes idle
	}
	srv := NewServer(e, "srv", 1)
	if !srv.TryAcquire() {
		t.Fatal("fresh server busy")
	}
	tk := NewServer(e, "tokens", 4)
	grp := NewGroup(e)
	grp.join.n++ // never done
	parked("on-server", srv.Acquire)
	parked("on-tokens", func(p *Proc) { tk.AcquireN(p, 3); tk.AcquireN(p, 3) })
	parked("on-event", NewEvent(e).Wait)
	parked("on-group", func(p *Proc) { _ = grp.Wait(p) })
	parked("on-timer", func(p *Proc) { p.Wait(time.Hour) })
	parked("on-chunks", func(p *Proc) { Path{srv.Link(1, 0)}.Send(p, 3*DefaultChunk, 0) })
	gate := &mediaStage{e: e, posDone: NewEvent(e)} // never fires
	Path{}.Start(NewJoin(e), 1, gate, 0)
	e.RunUntil(Time(time.Second))

	ranLate := false
	e.Spawn("never-run", func(p *Proc) { ranLate = true })
	if got := e.Live(); got != 11 {
		t.Fatalf("live before shutdown = %d, want 11 (7 processes, 3 chunks, 1 at a gate)", got)
	}

	e.Shutdown()
	if got := e.Live(); got != 0 {
		t.Errorf("live after shutdown = %d, want 0", got)
	}
	want := []string{"on-server", "on-tokens", "on-event", "on-group", "on-timer", "on-chunks"}
	if !slices.Equal(unwound, want) {
		t.Errorf("deferred functions ran as %v, want %v (creation order, once each)", unwound, want)
	}
	if ranLate {
		t.Error("an assignment that was never dispatched ran during Shutdown")
	}
	if n := e.EventsExecuted(); e.Step() || e.EventsExecuted() != n {
		t.Error("Step dispatched an event after Shutdown")
	}
	e.Shutdown()
	if !slices.Equal(unwound, want) || e.Live() != 0 {
		t.Errorf("second Shutdown changed state: unwound %v, live %d", unwound, e.Live())
	}
	// More, not different: an earlier test's runner goroutine may still be
	// exiting when this test starts, so the count can fall on its own.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before New, %d after Shutdown", before, after)
	}
}

// lostInTheModel is the frame a ProcPanic's stack must name.
//
//go:noinline
func lostInTheModel(m map[string]int) { m["disk"] = 1 }

func TestProcPanicCarriesProcessAndStack(t *testing.T) {
	e := New()
	e.Spawn("bystander", func(p *Proc) { p.Wait(time.Hour) })
	victim := e.Spawn("victim", func(p *Proc) {
		p.Wait(time.Millisecond)
		lostInTheModel(nil)
	})
	id := victim.ID()
	var pp *ProcPanic
	func() {
		defer func() { pp, _ = recover().(*ProcPanic) }()
		e.Run()
	}()
	if pp == nil {
		t.Fatal("a panic in model code did not reach Run's caller as *ProcPanic")
	}
	if pp.Proc != "victim" || pp.ID != id {
		t.Errorf("ProcPanic names %q id %d, want victim id %d", pp.Proc, pp.ID, id)
	}
	var rerr runtime.Error
	if !errors.As(pp, &rerr) || !strings.Contains(rerr.Error(), "nil map") {
		t.Errorf("Unwrap lost the runtime error: Value = %v", pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "lostInTheModel") {
		t.Errorf("stack does not name the model frame:\n%s", pp.Stack)
	}
	for _, s := range []string{pp.Error(), pp.String(), fmt.Sprint(pp)} {
		for _, part := range []string{`"victim"`, fmt.Sprintf("id %d", id), "nil map", "lostInTheModel"} {
			if !strings.Contains(s, part) {
				t.Errorf("message lacks %q:\n%s", part, s)
			}
		}
	}
	if (&ProcPanic{Value: "not an error"}).Unwrap() != nil {
		t.Error("Unwrap of a non-error value is not nil")
	}
	// The engine is still consistent: the victim is accounted for and the
	// bystander is reaped.
	if got := e.Live(); got != 1 {
		t.Errorf("live after the panic = %d, want 1", got)
	}
	e.Shutdown()
	if got := e.Live(); got != 0 {
		t.Errorf("live after shutdown = %d, want 0", got)
	}
}

func TestShutdownInsideProcessPanics(t *testing.T) {
	for _, drive := range []struct {
		name string
		run  func(e *Engine)
	}{
		{"Run", func(e *Engine) { e.Run() }},
		{"Step", func(e *Engine) { e.Step() }},
	} {
		t.Run(drive.name, func(t *testing.T) {
			e := New()
			e.Spawn("suicidal", func(p *Proc) { e.Shutdown() })
			var pp *ProcPanic
			func() {
				defer func() { pp, _ = recover().(*ProcPanic) }()
				drive.run(e)
			}()
			if pp == nil {
				t.Fatal("Shutdown from inside a process did not panic")
			}
			if msg, _ := pp.Value.(string); !strings.Contains(msg, "inside a simulated process") {
				t.Errorf("panic does not say what went wrong: %v", pp.Value)
			}
			e.Shutdown() // from outside, still works
			if e.Live() != 0 {
				t.Errorf("live = %d, want 0", e.Live())
			}
		})
	}
}
