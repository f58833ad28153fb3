package sim

// ChooserServer is a single-slot resource whose admission order is decided
// by a caller-supplied policy rather than FIFO: the disk model uses it to
// implement seek-aware request scheduling (SSTF, SCAN) at the actuator.
//
// Each waiter carries an int64 tag (for a disk, the target cylinder).  On
// Release, the choose function inspects the tags of all queued waiters and
// returns the index to admit next; one out of range admits the first.
type ChooserServer struct {
	eng    *Engine
	name   string
	busy   bool
	choose func(tags []int64) int
	queue  []chooserWaiter
	tags   []int64 // scratch for Release; valid only during the choose call
}

type chooserWaiter struct {
	proc *Proc
	tag  int64
}

// NewChooserServer creates the resource.
func NewChooserServer(e *Engine, name string, choose func(tags []int64) int) *ChooserServer {
	e.registerResource(name, 1)
	return &ChooserServer{eng: e, name: name, choose: choose}
}

// Acquire obtains the slot, parking until the policy admits this waiter.
func (s *ChooserServer) Acquire(p *Proc, tag int64) {
	if !s.busy {
		s.busy = true
		if t := s.eng.tracer; t != nil {
			t.ResourceAcquire(s.name, p, 1, 0, false)
		}
		return
	}
	s.queue = append(s.queue, chooserWaiter{proc: p, tag: tag})
	if t := s.eng.tracer; t != nil {
		t.ResourceWait(s.name, p, len(s.queue))
	}
	enq := s.eng.now
	p.park()
	if t := s.eng.tracer; t != nil {
		t.ResourceAcquire(s.name, p, 1, s.eng.now.Sub(enq), true)
	}
}

// Release frees the slot and admits the policy's pick.
func (s *ChooserServer) Release() {
	if !s.busy {
		//lint:allow simpanic an unbalanced Release corrupts admission; acquire/release pairing is a structural invariant
		panic("sim: release of idle chooser server " + s.name)
	}
	if t := s.eng.tracer; t != nil {
		t.ResourceRelease(s.name, 1)
	}
	if len(s.queue) == 0 {
		s.busy = false
		return
	}
	s.tags = s.tags[:0]
	for _, w := range s.queue {
		s.tags = append(s.tags, w.tag)
	}
	idx := s.choose(s.tags)
	if idx < 0 || idx >= len(s.queue) {
		idx = 0
	}
	w := s.queue[idx]
	s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
	s.eng.schedule(w.proc, s.eng.now)
}
