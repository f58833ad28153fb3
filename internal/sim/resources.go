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

// waiter is a queued request: a process's, or a chunk's when proc is nil.
type waiter struct {
	proc  *Proc
	chunk *chunk
	n     int
}

// wake schedules the waiter's process or chunk at the current time.
func (w waiter) wake(e *Engine) {
	if w.proc != nil {
		e.schedule(w.proc, e.now)
	} else {
		e.scheduleChunk(w.chunk, e.now)
	}
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
	if s.enter(waiter{proc: p, n: n}) {
		return
	}
	enq := s.eng.now
	p.park()
	// The releasing process carved our units out before waking us.
	if t := s.eng.tracer; t != nil {
		t.ResourceAcquire(s.name, p, n, s.eng.now.Sub(enq), true)
	}
}

// enter grants w's units at once if nobody is queued and they are free, and
// otherwise queues w; it reports whether they were granted.
func (s *Server) enter(w waiter) bool {
	if s.queue.len() == 0 && s.busy+w.n <= s.cap {
		s.busy += w.n
		if t := s.eng.tracer; t != nil {
			t.ResourceAcquire(s.name, w.proc, w.n, 0, false)
		}
		return true
	}
	s.queue.push(w)
	if t := s.eng.tracer; t != nil {
		t.ResourceWait(s.name, w.proc, s.queue.len())
	}
	return false
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
// head's request fits; each process resumes, or chunk steps, at the
// current simulated time.
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
		w.wake(s.eng)
	}
}

// Use acquires a unit, holds it for the simulated duration d, and releases it.
func (s *Server) Use(p *Proc, d Duration) {
	s.Acquire(p)
	p.Wait(d)
	s.Release()
}

// QueueLen reports the number of waiters.
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
	bytesPerS float64
	latency   Duration
	moved     uint64   // total bytes transferred
	self      [1]*Link // the link as a hop of one link
}

// NewLink creates a link with the given bandwidth in megabytes per second
// (decimal: 1 MB = 1e6 bytes, the convention the paper uses) and a fixed
// per-transfer latency, on a server of its own named name.
func NewLink(e *Engine, name string, mbPerS float64, latency Duration) *Link {
	return NewServer(e, name, 1).Link(mbPerS, latency)
}

// Link creates a link on s: each transfer holds one unit of s.  Links built
// on one server share its FIFO queue, as the two directions of a
// half-duplex port do.
func (s *Server) Link(mbPerS float64, latency Duration) *Link {
	if mbPerS <= 0 {
		//lint:allow simpanic resource constructors are wired with calibrated literal bandwidths at assembly time; a bad one is a programming error
		panic("sim: link bandwidth must be positive")
	}
	l := &Link{srv: s, bytesPerS: mbPerS * 1e6, latency: latency}
	l.self[0] = l
	return l
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

// Name returns the link's diagnostic name, its server's.
func (l *Link) Name() string { return l.srv.name }

// BytesMoved reports the total bytes transferred over the link.
func (l *Link) BytesMoved() uint64 { return l.moved }

// Links implements Hop: a link is a hop of one link.
func (l *Link) Links() []*Link { return l.self[:] }

// Hop is one stage of a data path: the links a chunk crosses there, in
// order.  A *Link is a hop of one link; a Route is several, as an XBUS port
// direction is the port's link for that direction and then board memory.
type Hop interface {
	Links() []*Link
}

// Route is a hop that crosses its links in order.
type Route []*Link

// Links implements Hop.
func (r Route) Links() []*Link { return r }

// Path is an ordered sequence of hops that data traverses, e.g.
// disk -> SCSI string -> Cougar controller -> VME port -> XBUS memory.
type Path []Hop

// DefaultChunk is the granularity at which Path.Send pipelines transfers.
// 32 KB matches the HIPPI FIFO depth on the XBUS board and keeps event
// counts manageable.
const DefaultChunk = 32 * 1024

// Send moves n bytes through every link of the path in order, pipelined at
// chunk granularity: chunk i+1 may occupy link k while chunk i occupies
// link k+1, so a long transfer approaches the slowest link's bandwidth.  A
// zero or negative chunk selects DefaultChunk.  One chunk runs on p; more
// start in order (FIFO link queues keep it) and p parks until the last one
// has left the last link.
func (path Path) Send(p *Proc, n, chunk int) {
	if n <= 0 || len(path) == 0 {
		return
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if n <= chunk {
		for _, h := range path {
			for _, l := range h.Links() {
				l.Transfer(p, n)
			}
		}
		return
	}
	j := NewJoin(p.eng)
	for ; n > 0; n -= chunk {
		path.Start(j, min(n, chunk), nil, 0)
	}
	j.Wait(p)
}

// Event is a one-shot condition that processes, and chunks at a Stage's
// gate, can wait on.  Once signalled it stays signalled, until Reset;
// later waiters return immediately.
type Event struct {
	eng     *Engine
	fired   bool
	waiters []waiter // in registration order
}

// NewEvent creates an unsignalled event.
func NewEvent(e *Engine) *Event { return &Event{eng: e} }

// Fired reports whether the event has been signalled.
func (ev *Event) Fired() bool { return ev.fired }

// Signal fires the event, waking all current waiters, in the order they
// registered, at the current time.
func (ev *Event) Signal() {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.wake()
}

// Reset makes a fired event unsignalled again, so that one event, and its
// waiter storage, serves a run of one-shot conditions.  A fired event has
// no waiters left to lose.
func (ev *Event) Reset() { ev.fired = false }

// wake schedules every waiter at the current time and empties the waiter
// list, keeping its backing array for reuse.
func (ev *Event) wake() {
	for i, w := range ev.waiters {
		w.wake(ev.eng)
		ev.waiters[i] = waiter{}
	}
	ev.waiters = ev.waiters[:0]
}

// Wait blocks p until the event fires (returns immediately if already fired).
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, waiter{proc: p})
	p.park()
}

// Join is fork/join for simulated work that cannot fail: Path.Start adds
// chunks, Wait joins them all.  Group builds on it for worker processes.
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
		//lint:allow simpanic unbalanced done corrupts the join's completion event; start/done pairing is a structural invariant
		panic("sim: Join.done without matching start")
	}
	if j.n == 0 {
		// Wake the joiners without latching, so the join (and its
		// event's waiter storage) is immediately reusable.
		j.ev.wake()
	}
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
