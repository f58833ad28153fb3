package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

func TestWaitAdvancesClock(t *testing.T) {
	e := New()
	var at Time
	e.Spawn("w", func(p *Proc) {
		p.Wait(5 * time.Millisecond)
		at = p.Now()
	})
	e.Run()
	if at != Time(5*time.Millisecond) {
		t.Fatalf("got %v, want 5ms", at)
	}
}

func TestFIFOAtSameTimestamp(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Wait(time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order not FIFO: %v", order)
		}
	}
}

func TestWaitUntilPastIsNoop(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		p.Wait(time.Second)
		p.WaitUntil(Time(time.Millisecond)) // already past
		if p.Now() != Time(time.Second) {
			t.Errorf("WaitUntil moved clock backwards: %v", p.Now())
		}
	})
	e.Run()
}

func TestAtSchedulesAbsolute(t *testing.T) {
	e := New()
	var at Time
	e.At(Time(42*time.Millisecond), "late", func(p *Proc) { at = p.Now() })
	e.Run()
	if at != Time(42*time.Millisecond) {
		t.Fatalf("got %v, want 42ms", at)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New()
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Wait(time.Second)
			ticks++
		}
	})
	e.RunUntil(Time(5500 * time.Millisecond))
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	e.Shutdown()
}

func TestShutdownReapsParkedProcesses(t *testing.T) {
	e := New()
	srv := NewServer(e, "s", 1)
	for i := 0; i < 5; i++ {
		e.Spawn("p", func(p *Proc) {
			srv.Acquire(p)
			p.Wait(time.Hour) // holds forever within the horizon
			srv.Release()
		})
	}
	e.RunUntil(Time(time.Minute))
	if e.Live() != 5 {
		t.Fatalf("live = %d, want 5", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("live after shutdown = %d, want 0", e.Live())
	}
}

func TestServerFIFOAndCapacity(t *testing.T) {
	e := New()
	srv := NewServer(e, "s", 2)
	var done []int
	for i := 0; i < 6; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			srv.Use(p, 10*time.Millisecond)
			done = append(done, i)
		})
	}
	end := e.Run()
	// 6 jobs, 2 slots, 10ms each -> 30ms.
	if end != Time(30*time.Millisecond) {
		t.Fatalf("end = %v, want 30ms", end)
	}
	for i, v := range done {
		if v != i {
			t.Fatalf("completion order not FIFO: %v", done)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	e := New()
	srv := NewServer(e, "s", 1)
	e.Spawn("p", func(p *Proc) {
		if !srv.TryAcquire() {
			t.Error("first TryAcquire should succeed")
		}
		if srv.TryAcquire() {
			t.Error("second TryAcquire should fail")
		}
		srv.Release()
		if !srv.TryAcquire() {
			t.Error("TryAcquire after release should succeed")
		}
		srv.Release()
	})
	e.Run()
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := New()
	NewServer(e, "s", 1).Release()
}

func TestLinkTransferTime(t *testing.T) {
	e := New()
	l := NewLink(e, "l", 10, time.Millisecond) // 10 MB/s + 1 ms
	var end Time
	e.Spawn("p", func(p *Proc) {
		l.Transfer(p, 1_000_000) // 100 ms + 1 ms
		end = p.Now()
	})
	e.Run()
	want := Time(101 * time.Millisecond)
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
	if l.BytesMoved() != 1_000_000 {
		t.Fatalf("moved = %d", l.BytesMoved())
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	e := New()
	l := NewLink(e, "l", 1, 0) // 1 MB/s
	g := NewGroup(e)
	for i := 0; i < 3; i++ {
		g.Go("p", func(p *Proc) error {
			l.Transfer(p, 1_000_000)
			return nil
		})
	}
	var end Time
	e.Spawn("join", func(p *Proc) {
		_ = g.Wait(p)
		end = p.Now()
	})
	e.Run()
	if end != Time(3*time.Second) {
		t.Fatalf("end = %v, want 3s", end)
	}
}

func TestPathPipelines(t *testing.T) {
	e := New()
	// Two 10 MB/s hops; pipelined chunks should approach 10 MB/s, not 5.
	path := Path{NewLink(e, "a", 10, 0), NewLink(e, "b", 10, 0)}
	var end Time
	e.Spawn("p", func(p *Proc) {
		path.Send(p, 10_000_000, 64*1024)
		end = p.Now()
	})
	e.Run()
	sec := end.Seconds()
	if sec < 1.0 || sec > 1.1 {
		t.Fatalf("pipelined 10 MB over 2x10MB/s hops took %.3fs, want ~1.0s", sec)
	}
}

func TestPathBottleneck(t *testing.T) {
	e := New()
	path := Path{NewLink(e, "fast", 100, 0), NewLink(e, "slow", 5, 0), NewLink(e, "fast2", 100, 0)}
	var end Time
	e.Spawn("p", func(p *Proc) {
		path.Send(p, 5_000_000, 32*1024)
		end = p.Now()
	})
	e.Run()
	sec := end.Seconds()
	if sec < 1.0 || sec > 1.15 {
		t.Fatalf("5 MB over 5 MB/s bottleneck took %.3fs, want ~1.0s", sec)
	}
}

func TestPathSingleChunkFallback(t *testing.T) {
	e := New()
	path := Path{NewLink(e, "a", 1, 0), NewLink(e, "b", 1, 0)}
	var end Time
	e.Spawn("p", func(p *Proc) {
		path.Send(p, 1000, 4096) // single chunk: hops serialize
		end = p.Now()
	})
	e.Run()
	if end != Time(2*time.Millisecond) {
		t.Fatalf("end = %v, want 2ms", end)
	}
}

func TestEventSignalWakesAll(t *testing.T) {
	e := New()
	ev := NewEvent(e)
	woke := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			ev.Wait(p)
			woke++
		})
	}
	e.Spawn("sig", func(p *Proc) {
		p.Wait(time.Millisecond)
		ev.Signal()
	})
	e.Run()
	if woke != 4 {
		t.Fatalf("woke = %d, want 4", woke)
	}
	if !ev.Fired() {
		t.Fatal("event should be fired")
	}
}

func TestEventWaitAfterSignalReturnsImmediately(t *testing.T) {
	e := New()
	ev := NewEvent(e)
	ev.Signal()
	var at Time
	e.Spawn("w", func(p *Proc) {
		p.Wait(time.Second)
		ev.Wait(p)
		at = p.Now()
	})
	e.Run()
	if at != Time(time.Second) {
		t.Fatalf("at = %v, want 1s", at)
	}
}

func TestGroupJoin(t *testing.T) {
	e := New()
	g := NewGroup(e)
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Second
		g.Go("w", func(p *Proc) error {
			p.Wait(d)
			return nil
		})
	}
	var end Time
	e.Spawn("join", func(p *Proc) {
		_ = g.Wait(p)
		end = p.Now()
	})
	e.Run()
	if end != Time(3*time.Second) {
		t.Fatalf("end = %v, want 3s", end)
	}
}

func TestGroupReuse(t *testing.T) {
	e := New()
	g := NewGroup(e)
	var first, second Time
	e.Spawn("driver", func(p *Proc) {
		oneSecond := func(q *Proc) error {
			q.Wait(time.Second)
			return nil
		}
		g.Go("a", oneSecond)
		_ = g.Wait(p)
		first = p.Now()
		g.Go("b", oneSecond)
		_ = g.Wait(p)
		second = p.Now()
	})
	e.Run()
	if first != Time(time.Second) || second != Time(2*time.Second) {
		t.Fatalf("first=%v second=%v", first, second)
	}
}

// holdStage is an open stage whose chunks hold for their tag in seconds.
type holdStage struct{ ev *Event }

func (s holdStage) Gate() *Event { return s.ev }

func (s holdStage) Until(tag int64, _ int) Time {
	return s.ev.eng.now.Add(time.Duration(tag) * time.Second)
}

// TestJoinWaitsForEveryWorker: Wait returns when the last worker does, and
// the join is reusable at once.
func TestJoinWaitsForEveryWorker(t *testing.T) {
	e := New()
	j := NewJoin(e)
	s := holdStage{NewEvent(e)}
	s.ev.Signal()
	var first, second Time
	e.Spawn("driver", func(p *Proc) {
		for i := int64(1); i <= 3; i++ {
			Path{}.Start(j, 1, s, i)
		}
		j.Wait(p)
		first = p.Now()
		j.Wait(p) // none outstanding: no wait
		Path{}.Start(j, 1, s, 1)
		j.Wait(p)
		second = p.Now()
	})
	e.Run()
	if first != Time(3*time.Second) || second != Time(4*time.Second) {
		t.Fatalf("first=%v second=%v, want 3s and 4s", first, second)
	}
}

func TestBytesDuration(t *testing.T) {
	if d := BytesDuration(1_000_000, 1); d != time.Second {
		t.Fatalf("1MB @ 1MB/s = %v, want 1s", d)
	}
	if d := BytesDuration(40_000_000, 40); d != time.Second {
		t.Fatalf("40MB @ 40MB/s = %v, want 1s", d)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for negative schedule")
			}
			// re-panic not needed; proc ends normally after recover
		}()
		e.schedule(p, Time(-1))
	})
	// The proc recovers its own panic; engine proceeds.
	e.Run()
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
	if tm.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Fatal("Add")
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Fatal("Sub")
	}
	if tm.String() != "1.5s" {
		t.Fatalf("String = %q", tm.String())
	}
}

func TestNestedSpawn(t *testing.T) {
	e := New()
	depth := 0
	var spawnDeep func(p *Proc, d int)
	spawnDeep = func(p *Proc, d int) {
		if d > depth {
			depth = d
		}
		if d == 5 {
			return
		}
		done := NewEvent(e)
		e.Spawn("child", func(c *Proc) {
			c.Wait(time.Millisecond)
			spawnDeep(c, d+1)
			done.Signal()
		})
		done.Wait(p)
	}
	e.Spawn("root", func(p *Proc) { spawnDeep(p, 0) })
	e.Run()
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
}

// followScope is a SpanScope that logs which workers it followed and when
// it was released.
type followScope struct {
	log *[]string
}

func (followScope) SpanEnd(string, string, Time) {}

func (s followScope) Follow(w *Proc) func() {
	w.SetMeterContext(s)
	*s.log = append(*s.log, fmt.Sprintf("follow %s at %v", w.Name(), w.Now()))
	return func() { *s.log = append(*s.log, fmt.Sprintf("release %s at %v", w.Name(), w.Now())) }
}

// TestForkedGroupCarriesScopeAndFirstError: a group forked from a process
// hands that process's scope to every worker as the worker starts and
// releases it as the worker returns; an engine-bound group never does; and
// Wait returns the error of the worker that failed first in simulated time,
// not in fork order.
func TestForkedGroupCarriesScopeAndFirstError(t *testing.T) {
	e := New()
	var log []string
	errSlow, errFast := errors.New("slow"), errors.New("fast")
	var forked, bound error
	e.Spawn("parent", func(p *Proc) {
		p.SetMeterContext(followScope{&log})
		worker := func(d Duration, err error) func(*Proc) error {
			return func(q *Proc) error {
				if q.MeterContext() == nil {
					t.Errorf("%s started without its parent's scope", q.Name())
				}
				q.Wait(d)
				return err
			}
		}
		g := p.Fork()
		g.Go("w-slow", worker(2*time.Millisecond, errSlow))
		g.Go("w-fast", worker(time.Millisecond, errFast))
		g.Go("w-ok", worker(3*time.Millisecond, nil))
		forked = g.Wait(p)

		bg := NewGroup(e)
		bg.Go("bg", func(q *Proc) error {
			if q.MeterContext() != nil {
				t.Error("an engine-bound group's worker carries a scope")
			}
			return errSlow
		})
		bound = bg.Wait(p)
	})
	e.Run()
	if forked != errFast {
		t.Errorf("forked Wait = %v, want the worker that failed first in simulated time (%v)", forked, errFast)
	}
	if bound != errSlow {
		t.Errorf("engine-bound Wait = %v, want %v", bound, errSlow)
	}
	want := []string{
		"follow w-slow at 0s", "follow w-fast at 0s", "follow w-ok at 0s",
		"release w-fast at 1ms", "release w-slow at 2ms", "release w-ok at 3ms",
	}
	if !slices.Equal(log, want) {
		t.Errorf("scope log = %q, want %q", log, want)
	}
}
