package sim

// chunk is one piece of a Path transfer.  It walks the path's links as
// engine steps rather than as a process: at each link it takes one unit of
// the link's server (queueing FIFO behind whoever holds it), holds it for
// XferTime, releases it and counts the bytes moved; after the last link it
// marks its Join done.  Each step makes exactly the schedule calls a
// process doing the same transfers would — a start event where Spawn
// schedules one, one event per hold, one per queued grant — so a chunk
// fires the same events at the same (at, seq) as the process it replaces.
// Its resource hooks carry no process.  Chunk states come from a free list
// on the engine, so a warm transfer allocates none.
type chunk struct {
	eng  *Engine
	slot uint64 // index in eng.chunks, carried by the chunk's events
	path Path
	hop  int // path[hop] is the hop being walked
	next int // index of the next link in path[hop].Links()
	n    int
	join *Join
	cur  *Link // the link held or queued on; nil before the first
	held bool
	enq  Time // when the chunk entered cur's queue
}

// Start sends one chunk of n > 0 bytes through the path under j, without
// a process: j.Wait returns once it, and every other worker of j, is done.
// Live counts the chunk until it has left the last link.
func (path Path) Start(j *Join, n int) {
	e := j.eng
	var c *chunk
	if k := len(e.freeChunks); k > 0 {
		c = e.freeChunks[k-1]
		e.freeChunks = e.freeChunks[:k-1]
	} else {
		c = &chunk{eng: e, slot: uint64(len(e.chunks))}
		e.chunks = append(e.chunks, c)
	}
	c.path, c.n, c.join = path, n, j
	j.n++
	e.live++
	e.scheduleChunk(c, e.now)
}

// step runs the chunk's pending step — its start, the end of a hold, or a
// queued grant — and holds cur when it has been granted.
func (c *chunk) step() {
	e := c.eng
	if c.cur != nil && !c.held {
		if t := e.tracer; t != nil {
			t.ResourceAcquire(c.cur.srv.name, nil, 1, e.now.Sub(c.enq), true)
		}
	} else if !c.take() {
		return
	}
	c.held = true
	e.scheduleChunk(c, e.now.Add(c.cur.XferTime(c.n)))
}

// take ends the hold on cur, if any, and enters the next link's queue,
// reporting whether it was granted at once.  Past the last link the chunk
// is done: its state goes back on the free list and its Join hears of it.
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
	j := c.join
	*c = chunk{eng: e, slot: c.slot}
	e.freeChunks = append(e.freeChunks, c)
	e.live--
	j.done()
	return false
}
