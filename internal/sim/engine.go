// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.  It is the substrate on which every hardware component
// of the RAID-II reproduction (disks, SCSI strings, the XBUS crossbar, HIPPI
// and Ethernet networks, the host workstation) is modelled.
//
// The engine runs simulated processes as coroutines (iter.Pull), so only one
// process executes at a time: the scheduler dispatches the earliest pending
// event, switches to the process that owns it, and gets control back when
// that process blocks again (on a timer, a resource, or an event) or
// finishes.  Events with equal timestamps fire in the order they were
// scheduled, so runs are fully deterministic.
//
// All engine methods must be called either before Run/RunUntil begins, or
// from within a currently-running simulated process.  The engine is not
// safe for concurrent use from arbitrary goroutines; this single-threaded
// discipline is what makes simulations reproducible.
//
// The hot path is engineered so that steady-state scheduling is
// allocation-free and, where the protocol allows, free of hand-offs: events
// live in a value-typed 4-ary heap (queue.go), finished process shells are
// recycled through a free list instead of creating fresh coroutines, and a
// process whose own wake-up is the next runnable event resumes itself
// without yielding to the scheduler (see Proc.park).  A hand-off that does
// happen is the runtime's direct coroutine switch: same thread, no run
// queue, no wake-up of another P.  DESIGN.md §15 documents the design and
// its determinism argument.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// Time is an absolute simulated time in nanoseconds since the start of the
// simulation.
type Time int64

// maxTime is the largest representable simulated time; Run uses it as its
// deadline.
const maxTime = Time(1<<62 - 1)

// Duration re-exports time.Duration for convenience so that model code can
// write sim.Duration in signatures without importing time.
type Duration = time.Duration

// Seconds converts an absolute simulated time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// event is a scheduled resumption of a process or, when proc is nil, the
// next step of a chunk (chunk.go).  For a process, wake snapshots its
// assignment ID at schedule time: process shells are recycled (see Spawn),
// so a dispatch fires only when the shell still runs the assignment the
// event was scheduled for.  For a chunk, wake is its slot in Engine.chunks.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	proc *Proc
	wake uint64 // p.id at schedule time, or the chunk's slot
}

// Engine is a discrete-event simulation scheduler.
// The zero value is not usable; create engines with New.
type Engine struct {
	now      Time
	events   eventQueue
	seq      uint64
	executed uint64 // events dispatched since New
	live     int    // processes started but not finished
	stopped  bool
	inProc   bool // a process is executing (dispatch is inside next)

	// Resume fast-path state: running marks that RunUntil's loop is
	// draining the queue (Step leaves it false), and deadline is that
	// loop's horizon.  A parking process may consume its own head event
	// directly only under these bounds; see Proc.park.
	running  bool
	deadline Time

	idle   []*Proc // finished process shells awaiting reuse
	shells []*Proc // every shell, in creation order, for Shutdown

	chunks     []*chunk // every chunk state, indexed by its slot
	freeChunks []*chunk // finished chunk states awaiting reuse

	procSeq   uint64         // process IDs, assigned in spawn order
	tracer    Tracer         // observability hooks; nil when untraced
	resources []resourceInfo // one per constructed resource name, for tracer replay
	resIdx    map[string]int // each name's place in resources

	meter any // opaque metrics registry slot; see meter.go
}

// New creates an empty simulation engine at time zero.
func New() *Engine {
	return &Engine{}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Live reports the number of processes that have been spawned and have not
// yet finished, counting each unfinished Path chunk as one.  After Run
// returns, a nonzero Live count means processes are parked on resources or
// events that will never be signalled (a deadlock in the modelled system).
func (e *Engine) Live() int { return e.live }

// Spawns reports the number of processes spawned since the engine was
// created; chunks are not processes and do not count.
func (e *Engine) Spawns() uint64 { return e.procSeq }

// EventsExecuted reports the number of events dispatched since the engine
// was created.  The count is a pure function of the simulated workload —
// identical runs execute identical event counts — so tools (raidbench)
// divide it by host time to report engine throughput without perturbing
// determinism.
func (e *Engine) EventsExecuted() uint64 { return e.executed }

// schedule enqueues a resumption of p at time at.
func (e *Engine) schedule(p *Proc, at Time) { e.push(at, p, p.id) }

// scheduleChunk enqueues c's next step at time at.
func (e *Engine) scheduleChunk(c *chunk, at Time) { e.push(at, nil, c.slot) }

// push enqueues an event for p, or for a chunk when p is nil, at time at.
func (e *Engine) push(at Time, p *Proc, wake uint64) {
	if at < e.now {
		//lint:allow simpanic scheduling into the past would corrupt the event timeline; this is the engine's core invariant
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < %v", at, e.now))
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, proc: p, wake: wake})
}

// consumeHead removes the earliest pending event, advances the clock to it
// and counts it.  Every event leaves the queue through this helper — from
// fireNext or from the park fast path — so queue behaviour and the executed
// count stay consistent by construction.
func (e *Engine) consumeHead() event {
	ev := e.events.pop()
	e.now = ev.at
	e.executed++
	return ev
}

// fireNext pops and dispatches the earliest pending event if its timestamp
// is at or before deadline, reporting whether one fired.  RunUntil and Step
// both drain the queue through this single helper.
func (e *Engine) fireNext(deadline Time) bool {
	if e.events.len() == 0 || e.events.head().at > deadline {
		return false
	}
	ev := e.consumeHead()
	if ev.proc == nil {
		e.chunks[ev.wake].step()
	} else {
		e.dispatch(ev.proc, ev.wake)
	}
	return true
}

// Run executes events until no more are pending.  It returns the final
// simulated time.  Processes left parked on resources or events are not an
// error here (workload generators often outlive the measurement window);
// call Shutdown to reap them.
func (e *Engine) Run() Time { return e.RunUntil(maxTime) }

// RunUntil executes events with timestamps <= deadline and returns the
// simulated time of the last event executed.  The clock never moves past
// that event: a queue that drains before deadline leaves it there.
func (e *Engine) RunUntil(deadline Time) Time {
	if e.stopped {
		//lint:allow simpanic running a shut-down engine is harness misuse, caught at development time
		panic("sim: engine already shut down")
	}
	e.running, e.deadline = true, deadline
	for e.fireNext(deadline) {
	}
	e.running = false
	return e.now
}

// Step executes exactly one pending event, if any, and reports whether one
// was executed.  Useful in tests that assert on intermediate states.  The
// resume fast path stays off during a Step so that a self-rescheduling
// process cannot consume more than the one event.
func (e *Engine) Step() bool {
	return e.fireNext(maxTime)
}

// dispatch switches to the process that owns the event and returns when it
// parks again or finishes.  A stale wake-up — the shell was reaped by
// Shutdown, or recycled onto a new assignment — fires nothing.  A panic in
// the process surfaces here, in Run's caller, as a *ProcPanic.
func (e *Engine) dispatch(p *Proc, wake uint64) {
	if p.finished || p.id != wake {
		return
	}
	e.inProc = true
	p.next()
	e.inProc = false
}

// Shutdown terminates all parked processes, drops unfinished chunks and
// pending events, and marks the engine unusable.
// It must be called from outside any simulated process, after Run/RunUntil
// has returned.  It is the caller's tool for reclaiming the coroutines of
// processes that never finish on their own (e.g. open-loop workload
// generators).  Shells are stopped in creation order: a parked process sees
// its yield fail, unwinds through its deferred functions with killSentinel
// and returns; an assignment that was never dispatched ends without running;
// an idle pooled shell just returns.
func (e *Engine) Shutdown() {
	if e.inProc {
		//lint:allow simpanic stopping the engine from inside one of its own processes would resume the caller into its own stop; harness misuse, caught at development time
		panic("sim: Shutdown called from inside a simulated process; call it from Run's caller, after Run returns")
	}
	if e.stopped {
		return
	}
	e.stopped = true
	for _, p := range e.shells {
		if p.exited {
			continue // suspended mid-Goexit for good; stop would resume the Goexit here
		}
		p.stop()
		if !p.finished { // spawned, never dispatched
			p.finished = true
			e.live--
		}
	}
	e.live -= len(e.chunks) - len(e.freeChunks)
	e.shells, e.idle, e.chunks, e.freeChunks = nil, nil, nil, nil
	e.events = eventQueue{}
}

// killSentinel is the panic value used to unwind processes during Shutdown.
type killSentinel struct{}

// Proc is a simulated process: a coroutine whose execution is interleaved
// deterministically by the engine.  Model code receives a *Proc and uses it
// to wait for simulated time to pass and to interact with resources.
//
// A Proc is a shell that may serve several assignments over its lifetime:
// when an assignment's function returns, the shell parks on the engine's
// free list and Spawn reuses it — coroutine and all — for a later process,
// under a fresh ID.  Model code never observes the reuse; it only ever sees
// the Proc during its own assignment.
type Proc struct {
	eng      *Engine
	name     string
	id       uint64
	fn       func(*Proc)
	next     func() (struct{}, bool) // engine -> process: run until the next park
	stop     func()                  // engine -> process: fail the pending yield
	yield    func(struct{}) bool     // process -> engine; false once stopped
	finished bool
	exited   bool      // left via runtime.Goexit; the coroutine can never be resumed
	meterCtx SpanScope // per-process annotation; see meter.go
}

// Spawn starts a new simulated process executing fn.  The process begins at
// the current simulated time (after the caller next yields).  The name is
// used only for diagnostics.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	if e.stopped {
		//lint:allow simpanic spawning on a shut-down engine is harness misuse, caught at development time
		panic("sim: Spawn after Shutdown")
	}
	e.procSeq++
	var p *Proc
	if n := len(e.idle); n > 0 {
		p = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		p.name, p.id, p.fn = name, e.procSeq, fn
		p.finished = false
		p.meterCtx = nil
	} else {
		p = &Proc{eng: e, name: name, id: e.procSeq, fn: fn}
		p.next, p.stop = iter.Pull(p.loop)
		e.shells = append(e.shells, p)
	}
	e.live++
	if e.tracer != nil {
		e.tracer.ProcStart(p)
	}
	e.schedule(p, e.now)
	return p
}

// loop is the shell coroutine, started by the first dispatch of its first
// assignment: it runs the assignment, recycles itself, and parks until the
// first dispatch of the next.  It returns when the engine shuts down or the
// assignment is killed by Shutdown.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for p.run() {
		// Finished normally: recycle the shell before yielding, so the
		// engine can reuse it on the very next Spawn.
		p.eng.idle = append(p.eng.idle, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the shell's current assignment and reports whether the shell
// can be reused.  The deferred handler covers the three abnormal exits.  A
// Shutdown kill (killSentinel) ends the assignment quietly.  A real panic in
// model code is re-raised as a *ProcPanic carrying the process and its stack,
// which iter.Pull hands to Run's caller.  runtime.Goexit (t.Fatal inside a
// simulated process) would be re-raised there too, so the handler instead
// yields to the engine from inside the unwinding and is never resumed: the
// engine runs on, at the price of one stranded coroutine.
func (p *Proc) run() (reuse bool) {
	e := p.eng
	defer func() {
		if reuse {
			return // clean finish; bookkeeping already done below
		}
		r := recover()
		p.finished = true
		e.live--
		switch r.(type) {
		case killSentinel:
			// Killed processes skip the finish hook: they never finished.
		case nil:
			if e.tracer != nil {
				e.tracer.ProcFinish(p)
			}
			p.exited = true
			p.yield(struct{}{})
		default:
			e.inProc = false // dispatch's own reset is skipped by the panic
			//lint:allow simpanic re-raise: a real panic in model code must reach Run's caller, not be swallowed by the kill path
			panic(&ProcPanic{Proc: p.name, ID: p.id, Value: r, Stack: debug.Stack()})
		}
	}()
	p.fn(p)
	if e.tracer != nil {
		e.tracer.ProcFinish(p)
	}
	p.finished = true
	e.live--
	return true
}

// At schedules fn to run as a new process at absolute simulated time at.
func (e *Engine) At(at Time, name string, fn func(*Proc)) {
	e.Spawn(name, func(p *Proc) {
		p.WaitUntil(at)
		fn(p)
	})
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// park hands control back to the engine and blocks until resumed.
// Wake-ups must have been arranged beforehand (a scheduled event, or
// registration on a resource queue).
//
// Fast path: when the next runnable event is this process's own wake-up —
// the head of the queue, within the engine's current run deadline — the
// process consumes it directly and keeps running instead of switching to
// the engine and back.  This fires identical events in identical order
// (consumeHead is shared with the scheduler loop), so it is invisible to
// tracers and the simulation itself; it merely skips parking a coroutine to
// immediately resume it.  Only a running process can have scheduled its own next
// wake-up, so a head event owned by p is necessarily that wake-up.
func (p *Proc) park() {
	e := p.eng
	if e.running && e.events.len() > 0 {
		if h := e.events.head(); h.proc == p && h.wake == p.id && h.at <= e.deadline {
			e.consumeHead()
			return
		}
	}
	if !p.yield(struct{}{}) {
		//lint:allow simpanic killSentinel is the engine's control-flow mechanism for unwinding parked processes at Shutdown
		panic(killSentinel{})
	}
}

// Wait advances the process by the simulated duration d.  Negative or zero
// durations yield the processor to other events at the same timestamp.
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(p, p.eng.now.Add(d))
	p.park()
}

// WaitUntil advances the process to absolute time at (a no-op if at is in
// the past).
func (p *Proc) WaitUntil(at Time) {
	if at <= p.eng.now {
		return
	}
	p.eng.schedule(p, at)
	p.park()
}
