package sim

// chunk is one piece of a Path transfer.  It walks the path's links as
// engine steps rather than as a process: at each link it takes one unit of
// the link's server (queueing FIFO behind whoever holds it), holds it for
// XferTime, releases it and counts the bytes moved; after the last link it
// passes through its Stage, if it has one, and marks its Join done.  Each
// step makes exactly the schedule calls a process doing the same would — a
// start event where Spawn schedules one, one per hold, one per queued
// grant, one for the gate's wake-up and one for the stage's hold — so a
// chunk fires the same events at the same (at, seq) as the process it
// replaces.  Its resource hooks carry no process.  Chunk states come from
// a free list on the engine, so a warm transfer allocates none.
type chunk struct {
	eng   *Engine
	slot  uint64 // index in eng.chunks, carried by the chunk's events
	path  Path
	hop   int // path[hop] is the hop being walked
	next  int // index of the next link in path[hop].Links()
	n     int
	join  *Join
	cur   *Link // the link held or queued on; nil before the first
	held  bool
	enq   Time  // when the chunk entered cur's queue
	stage Stage // passed after the last link; nil for none
	tag   int64 // the chunk's name to its stage
	gated bool  // waiting for the stage's gate to fire
	final bool  // holding in the stage: the next step is the last
}

// Stage is where a chunk may end past its last link, as a drive's media
// commits the chunks its bus delivered: the chunk waits for Gate to fire,
// then holds until the time Until returns as it passes, in arrival order.
type Stage interface {
	Gate() *Event
	Until(tag int64, n int) Time
}

// Start sends one chunk of n > 0 bytes through the path under j, without
// a process: j.Wait returns once it, and every other worker of j, is done.
// A chunk with a stage s, which knows it as tag, is done once it has
// passed s; one without (s nil) when it leaves the last link.  Live counts
// the chunk until it is done.
func (path Path) Start(j *Join, n int, s Stage, tag int64) {
	e := j.eng
	var c *chunk
	if k := len(e.freeChunks); k > 0 {
		c = e.freeChunks[k-1]
		e.freeChunks = e.freeChunks[:k-1]
	} else {
		c = &chunk{eng: e, slot: uint64(len(e.chunks))}
		e.chunks = append(e.chunks, c)
	}
	c.path, c.n, c.join, c.stage, c.tag = path, n, j, s, tag
	j.n++
	e.live++
	e.scheduleChunk(c, e.now)
}

// step runs the chunk's pending step — its start, the end of a hold, a
// queued grant, its gate firing or the end of its stage hold — and holds
// cur when it has been granted.
func (c *chunk) step() {
	e := c.eng
	switch {
	case c.gated:
		c.pass()
		return
	case c.final:
		c.finish()
		return
	case c.cur != nil && !c.held:
		if t := e.tracer; t != nil {
			t.ResourceAcquire(c.cur.srv.name, nil, 1, e.now.Sub(c.enq), true)
		}
	case !c.take():
		return
	}
	c.held = true
	e.scheduleChunk(c, e.now.Add(c.cur.XferTime(c.n)))
}

// take ends the hold on cur, if any, and enters the next link's queue,
// reporting whether it was granted at once.  Past the last link the chunk
// goes on to its stage's gate, or is done.
func (c *chunk) take() bool {
	e := c.eng
	if c.held {
		c.held = false
		c.cur.srv.Release()
		c.cur.moved += uint64(c.n)
	}
	for ; c.hop < len(c.path); c.hop, c.next = c.hop+1, 0 {
		if links := c.path[c.hop].Links(); c.next < len(links) {
			c.cur, c.next, c.enq = links[c.next], c.next+1, e.now
			return c.cur.srv.enter(waiter{chunk: c, n: 1})
		}
	}
	if c.stage == nil {
		c.finish()
	} else if g := c.stage.Gate(); g.fired {
		c.pass()
	} else {
		c.gated = true
		g.waiters = append(g.waiters, waiter{chunk: c})
	}
	return false
}

// pass takes the chunk through its stage's open gate: it holds until the
// time the stage gives it, or is done when that time has come already.
func (c *chunk) pass() {
	c.gated = false
	if until := c.stage.Until(c.tag, c.n); until > c.eng.now {
		c.final = true
		c.eng.scheduleChunk(c, until)
	} else {
		c.finish()
	}
}

// finish puts the chunk's state back on the free list and tells its Join.
func (c *chunk) finish() {
	e, j := c.eng, c.join
	*c = chunk{eng: e, slot: c.slot}
	e.freeChunks = append(e.freeChunks, c)
	e.live--
	j.done()
}
