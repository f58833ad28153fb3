package sim

import (
	"fmt"
	"math"
)

// Server is a FIFO resource of N identical units.  Processes acquire units
// (blocking in arrival order while too few are free) and release them
// later, possibly from a different process.  Acquire/Release take one unit:
// a Server of capacity 1 is a mutex with a fair queue, capacity N models N
// parallel service stations with a shared queue.  AcquireN/ReleaseN take
// several, for byte-counted buffer memory such as the XBUS board's DRAM.
//
// Admission is head-of-line FIFO: a waiter is admitted only once every
// earlier waiter has been, so a large request is never starved by smaller
// ones that would fit.  For one-unit waiters that is exactly a slot handed
// from the releaser to the head of the queue.
type Server struct {
	eng   *Engine
	name  string
	cap   int
	busy  int // units held
	queue fifo[waiter]
}

type waiter struct {
	proc *Proc
	n    int
}

// NewServer creates a FIFO server with the given capacity in units.
func NewServer(e *Engine, name string, capacity int) *Server {
	if capacity < 1 {
		//lint:allow simpanic resource constructors are wired with literal capacities at assembly time; a bad one is a programming error
		panic("sim: server capacity must be >= 1")
	}
	e.registerResource(name, capacity)
	return &Server{eng: e, name: name, cap: capacity}
}

// Acquire obtains one unit, blocking in FIFO order if none is free.
func (s *Server) Acquire(p *Proc) { s.AcquireN(p, 1) }

// AcquireN obtains n units, blocking in FIFO order until they are free.
// A request larger than the capacity panics: it could never be satisfied.
func (s *Server) AcquireN(p *Proc, n int) {
	if n > s.cap {
		//lint:allow simpanic a request larger than the server would block forever; deadlock-by-construction is a programming error
		panic(fmt.Sprintf("sim: request of %d units exceeds server %q capacity %d", n, s.name, s.cap))
	}
	if s.queue.len() == 0 && s.busy+n <= s.cap {
		s.busy += n
		if t := s.eng.tracer; t != nil {
			t.ResourceAcquire(s.name, p, n, 0, false)
		}
		return
	}
	s.queue.push(waiter{proc: p, n: n})
	if t := s.eng.tracer; t != nil {
		t.ResourceWait(s.name, p, s.queue.len())
	}
	enq := s.eng.now
	p.park()
	// The releasing process carved our units out before waking us.
	if t := s.eng.tracer; t != nil {
		t.ResourceAcquire(s.name, p, n, s.eng.now.Sub(enq), true)
	}
}

// TryAcquire obtains one unit only if it is free without waiting.
func (s *Server) TryAcquire() bool {
	if s.queue.len() > 0 || s.busy == s.cap {
		return false
	}
	s.busy++
	if t := s.eng.tracer; t != nil {
		t.ResourceAcquire(s.name, nil, 1, 0, false)
	}
	return true
}

// Reserve permanently carves n units out of the server at assembly time: no
// process context, no blocking.  It fails — rather than deadlocks — if the
// units are not free now or waiters are already queued, so callers
// partitioning a pool (e.g. cache capacity vs. transfer buffers in XBUS
// DRAM) get an honest error for an over-committed configuration.
func (s *Server) Reserve(n int) error {
	if n <= 0 {
		return fmt.Errorf("sim: reserve of %d units from %q", n, s.name)
	}
	if s.queue.len() > 0 || s.busy+n > s.cap {
		return fmt.Errorf("sim: cannot reserve %d units of %q (%d of %d available)", n, s.name, s.cap-s.busy, s.cap)
	}
	s.busy += n
	if t := s.eng.tracer; t != nil {
		t.ResourceAcquire(s.name, nil, n, 0, false)
	}
	return nil
}

// Release returns one unit.
func (s *Server) Release() { s.ReleaseN(1) }

// ReleaseN returns n units and admits queued waiters, in order, while the
// head's request fits; they resume at the current simulated time.
func (s *Server) ReleaseN(n int) {
	if n > s.busy {
		//lint:allow simpanic an unbalanced release corrupts admission; acquire/release pairing is a structural invariant
		panic(fmt.Sprintf("sim: release of %d units of %q with %d held", n, s.name, s.busy))
	}
	if t := s.eng.tracer; t != nil {
		t.ResourceRelease(s.name, n)
	}
	s.busy -= n
	for s.queue.len() > 0 && s.busy+s.queue.peek().n <= s.cap {
		w := s.queue.pop()
		s.busy += w.n
		s.eng.schedule(w.proc, s.eng.now)
	}
}

// Use acquires a unit, holds it for the simulated duration d, and releases it.
func (s *Server) Use(p *Proc, d Duration) {
	s.Acquire(p)
	p.Wait(d)
	s.Release()
}

// QueueLen reports the number of processes waiting.
func (s *Server) QueueLen() int { return s.queue.len() }

// Busy reports the number of units currently held.
func (s *Server) Busy() int { return s.busy }

// Available reports the number of units currently free.
func (s *Server) Available() int { return s.cap - s.busy }

// Link models a store-and-forward transmission resource: a bus, a network
// hop, a memory port.  A transfer of n bytes holds the link for
// latency + n/bandwidth.  Links are FIFO; concurrent transfers queue.
//
// Long transfers should be chunked (see Path.Send) so that several streams
// time-share a link at fine granularity the way real bus arbitration does,
// and so that multi-hop paths pipeline instead of serializing.
type Link struct {
	srv       *Server
	name      string
	bytesPerS float64
	latency   Duration
	moved     uint64 // total bytes transferred
}

// NewLink creates a link with the given bandwidth in megabytes per second
// (decimal: 1 MB = 1e6 bytes, the convention the paper uses) and a fixed
// per-transfer latency.
func NewLink(e *Engine, name string, mbPerS float64, latency Duration) *Link {
	if mbPerS <= 0 {
		//lint:allow simpanic resource constructors are wired with calibrated literal bandwidths at assembly time; a bad one is a programming error
		panic("sim: link bandwidth must be positive")
	}
	return &Link{
		srv:       NewServer(e, name, 1),
		name:      name,
		bytesPerS: mbPerS * 1e6,
		latency:   latency,
	}
}

// XferTime reports how long n bytes occupy the link, excluding queueing.
func (l *Link) XferTime(n int) Duration {
	return l.latency + Duration(math.Ceil(float64(n)/l.bytesPerS*1e9))
}

// Transfer moves n bytes across the link, queueing behind earlier transfers.
func (l *Link) Transfer(p *Proc, n int) {
	l.srv.Acquire(p)
	p.Wait(l.XferTime(n))
	l.srv.Release()
	l.moved += uint64(n)
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// BytesMoved reports the total bytes transferred over the link.
func (l *Link) BytesMoved() uint64 { return l.moved }

// Hop is one stage of a data path: anything that can be occupied for the
// duration of a chunk transfer.  *Link is the common implementation; the
// XBUS package supplies direction-dependent port hops.
type Hop interface {
	Transfer(p *Proc, n int)
}

// Path is an ordered sequence of hops that data traverses, e.g.
// disk -> SCSI string -> Cougar controller -> VME port -> XBUS memory.
type Path []Hop

// DefaultChunk is the granularity at which Path.Send pipelines transfers.
// 32 KB matches the HIPPI FIFO depth on the XBUS board and keeps event
// counts manageable.
const DefaultChunk = 32 * 1024

// Send moves n bytes through every link of the path in order, pipelined at
// chunk granularity: chunk i+1 may occupy hop k while chunk i occupies hop
// k+1.  It returns when the final chunk has left the last hop.  A zero or
// negative chunk selects DefaultChunk.  The effective bandwidth of a long
// transfer approaches the bandwidth of the slowest hop.
func (path Path) Send(p *Proc, n, chunk int) {
	if n <= 0 || len(path) == 0 {
		return
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	nchunks := (n + chunk - 1) / chunk
	if nchunks == 1 {
		for _, l := range path {
			l.Transfer(p, n)
		}
		return
	}
	j := NewJoin(p.eng)
	remaining := n
	for i := 0; i < nchunks; i++ {
		sz := chunk
		if sz > remaining {
			sz = remaining
		}
		remaining -= sz
		// Chunks are spawned in order; FIFO link queues preserve that
		// order at every hop, so arrival order is deterministic.
		j.Go("chunk", func(cp *Proc) {
			for _, l := range path {
				l.Transfer(cp, sz)
			}
		})
	}
	j.Wait(p)
}

// Event is a one-shot condition that processes can wait on.  Once signalled
// it stays signalled; later waiters return immediately.
type Event struct {
	eng     *Engine
	fired   bool
	waiters []*Proc
}

// NewEvent creates an unsignalled event.
func NewEvent(e *Engine) *Event { return &Event{eng: e} }

// Fired reports whether the event has been signalled.
func (ev *Event) Fired() bool { return ev.fired }

// Signal fires the event, waking all current waiters at the current time.
func (ev *Event) Signal() {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.wake()
}

// wake schedules every waiter at the current time and empties the waiter
// list, keeping its backing array for reuse.
func (ev *Event) wake() {
	for i, w := range ev.waiters {
		ev.eng.schedule(w, ev.eng.now)
		ev.waiters[i] = nil
	}
	ev.waiters = ev.waiters[:0]
}

// Wait blocks p until the event fires (returns immediately if already fired).
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, p)
	p.park()
}

// Join is fork/join for simulated work that cannot fail: Go forks a worker
// process, Wait joins them all.  Its workers follow nobody, like those of a
// group made by NewGroup.
type Join struct {
	eng *Engine
	n   int
	ev  *Event
}

// NewJoin creates an empty join.
func NewJoin(e *Engine) *Join { return &Join{eng: e, ev: NewEvent(e)} }

// done marks one worker complete.
func (j *Join) done() {
	j.n--
	if j.n < 0 {
		//lint:allow simpanic unbalanced done corrupts the join's completion event; Go's spawn/done pairing is a structural invariant
		panic("sim: Join.done without matching Go")
	}
	if j.n == 0 {
		// Wake the joiners without latching, so the join (and its
		// event's waiter storage) is immediately reusable.
		j.ev.wake()
	}
}

// Go spawns fn as a worker process tracked by the join.
func (j *Join) Go(name string, fn func(*Proc)) {
	j.n++
	j.eng.Spawn(name, func(q *Proc) {
		defer j.done()
		fn(q)
	})
}

// Wait blocks p until every worker has returned (not at all when none is
// outstanding).
func (j *Join) Wait(p *Proc) {
	if j.n > 0 {
		j.ev.Wait(p)
	}
}

// Group is a Join whose workers return an error: Wait reports the first.  A
// group made by Proc.Fork works for the forking process's request — every
// worker carries that process's SpanScope annotation, so a worker forked
// for a request cannot forget it — while NewGroup's is bound to the engine
// alone, for background work that outlives or belongs to no request
// (segment seals, rebuilds).
type Group struct {
	join Join
	from *Proc // the forking process; nil for an engine-bound group
	err  error // the first error a worker returned, in simulated order
}

// NewGroup creates an empty engine-bound group: its workers follow nobody.
func NewGroup(e *Engine) *Group { return &Group{join: Join{eng: e, ev: NewEvent(e)}} }

// Fork creates an empty group whose workers work on p's behalf: each one's
// first act is to let p's annotation (if p carries one then) follow it, and
// its last to release it.
func (p *Proc) Fork() *Group {
	return &Group{join: Join{eng: p.eng, ev: NewEvent(p.eng)}, from: p}
}

// Go spawns fn as a worker process tracked by the group.  An error it
// returns is kept if it is the group's first.
func (g *Group) Go(name string, fn func(*Proc) error) {
	g.join.n++
	g.join.eng.Spawn(name, func(q *Proc) {
		defer g.join.done()
		if g.from != nil && g.from.meterCtx != nil {
			defer g.from.meterCtx.Follow(q)()
		}
		if err := fn(q); err != nil && g.err == nil {
			g.err = err
		}
	})
}

// Wait blocks p until the outstanding count reaches zero (not at all when
// it already is) and returns Err.
func (g *Group) Wait(p *Proc) error {
	g.join.Wait(p)
	return g.err
}

// Err returns the first error a worker has returned so far — first in
// simulated time, and in dispatch order within one instant — or nil.  It is
// never cleared: a long-lived group latches its first failure.
func (g *Group) Err() error { return g.err }

// BytesDuration returns the time n bytes take at rate mbPerS (decimal
// megabytes per second), a convenience for model calibration code.
func BytesDuration(n int, mbPerS float64) Duration {
	return Duration(math.Ceil(float64(n) / (mbPerS * 1e6) * 1e9))
}
