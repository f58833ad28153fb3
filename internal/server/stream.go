package server

import "raidii/internal/sim"

// This file is the read stream every high-bandwidth read of an FSFile goes
// through (DESIGN.md §17 "The read stream"): FSRead, whose sink is a
// crossbar pass, and the client's raid_read (Stream), whose sink is an
// in-order ring send.  Pieces of at most pipelineChunk bytes are each one
// lfs ReadAtPieces call in a process that holds the piece's board DRAM from
// issue until its sink is done; a read keeps at most pipelineDepth of its
// own in flight.  A read that continues the handle's last one, when the
// window holds none of its bytes, issues the whole next window at once, and
// later reads take its pieces.  A look-ahead piece gives its DRAM back as it
// lands.  A window is the file at one generation (lfs File.Generation): a
// read that finds the generation moved drops it.

// windowBytes is a handle's read window.
const windowBytes = pipelineDepth * pipelineChunk

// readStream is an FSFile's read stream.  Its zero value is ready.
type readStream struct {
	next int64   // where the handle's last read ended
	win  *window // the look-ahead; nil when there is none
}

// window is a look-ahead: the pieces of [off, off+len(buf)), issued at once.
type window struct {
	gen    uint64 // the file's generation when it was issued
	off    int64
	buf    []byte // the pieces' bytes, in file order
	pieces []*piece
	lo     int64 // what no read has taken yet: [lo, off+len(buf))
}

// piece is at most pipelineChunk bytes of the file at off, read into buf.
type piece struct {
	off    int64
	buf    []byte
	got    int // bytes the file had there
	err    error
	landed *sim.Event
}

// part is the range [lo, hi) of a read that piece pc covers.  own marks a
// piece the read issued itself, not one it took from the window.
type part struct {
	pc     *piece
	lo, hi int64
	own    bool
}

// reach is where part pt's bytes end: at pt.hi, or before it where the file
// ended inside it.
func (pt part) reach() int64 { return min(pt.hi, pt.pc.off+int64(pt.pc.got)) }

// hi is where the window's bytes end.
func (w *window) hi() int64 { return w.off + int64(len(w.buf)) }

// plan lays a read of [off, end) out as parts in file order: the window's
// pieces where it holds the bytes (which the read takes out of it), fresh
// parts of at most pipelineChunk bytes, not yet issued, elsewhere.  A window
// whose generation has moved is dropped first.  ahead reports that the read
// continues the handle's last one and the window held none of its bytes.
func (s *readStream) plan(gen uint64, off, end int64) (parts []part, ahead bool) {
	if s.win != nil && s.win.gen != gen {
		s.win = nil
	}
	w := s.win
	ahead = s.next > 0 && off == s.next && (w == nil || end <= w.lo || off >= w.hi())
	s.next = end
	for at := off; at < end; {
		hi := min(end, at+pipelineChunk)
		if w != nil && w.lo <= at && at < w.hi() {
			pc := w.pieces[(at-w.off)/pipelineChunk]
			hi = min(end, pc.off+int64(len(pc.buf)))
			parts = append(parts, part{pc: pc, lo: at, hi: hi})
			w.lo = hi
		} else {
			if w != nil && at < w.lo && w.lo < hi {
				hi = w.lo
			}
			parts = append(parts, part{lo: at, hi: hi})
		}
		at = hi
	}
	return parts, ahead
}

// issue starts a piece reading len(buf) bytes of the file at off on g.
// land runs in the piece's process once its bytes are in (nil: nothing, the
// piece holds its DRAM until its reader gives it back).
func (f *FSFile) issue(g *sim.Group, off int64, buf []byte, land func(q *sim.Proc, n int)) *piece {
	b := f.Board
	pc := &piece{off: off, buf: buf, landed: sim.NewEvent(b.sys.Eng)}
	g.Go("fsread-chunk", func(q *sim.Proc) error {
		b.XB.Buffers.Acquire(q, len(buf))
		pc.got, pc.err = f.File.ReadAtPieces(q, off, buf, pipelineChunk, nil)
		if land != nil {
			land(q, len(buf))
		}
		pc.landed.Signal()
		return pc.err
	})
	return pc
}

// lookAhead issues the window after a read of [off, end) at generation gen:
// the rest of [off, off+windowBytes), clamped to EOF, as pieces that work
// for no request.  land must give each piece's DRAM back.
func (f *FSFile) lookAhead(p *sim.Proc, gen uint64, off, end int64, land func(q *sim.Proc, n int)) {
	size, err := f.File.Size(p)
	hi := min(off+windowBytes, size)
	if err != nil || hi <= end {
		return
	}
	w := &window{gen: gen, off: end, buf: make([]byte, hi-end), lo: end}
	g := sim.NewGroup(f.Board.sys.Eng)
	for at := end; at < hi; at += pipelineChunk {
		n := min(hi-at, pipelineChunk)
		w.pieces = append(w.pieces, f.issue(g, at, w.buf[at-end:at-end+n], land))
	}
	f.rs.win = w
}

// places counts a read's own pieces in flight, at most pipelineDepth.
type places struct {
	eng   *sim.Engine
	held  int
	freed *sim.Event // signalled when a piece gives its place back; nil while nobody waits
}

// take waits for a free place and takes it.
func (pl *places) take(p *sim.Proc) {
	for pl.held == pipelineDepth {
		pl.freed = sim.NewEvent(pl.eng)
		pl.freed.Wait(p)
	}
	pl.held++
}

// give returns a place.
func (pl *places) give() {
	pl.held--
	if ev := pl.freed; ev != nil {
		pl.freed = nil
		ev.Signal()
	}
}

// Stream reads n bytes of the file at off through the handle's read stream
// and hands them to send in file order, a piece at a time, as each lands:
// the client library's in-order ring send.  A piece the read issues holds
// its board DRAM until send is done with it; with pipelineDepth of them
// held, the read sends the oldest before it issues another.  It returns how
// many bytes send took before the first failure, the file's or send's.
func (f *FSFile) Stream(p *sim.Proc, off int64, n int, send func(p *sim.Proc, n int) error) (done int, err error) {
	b := f.Board
	release := func(_ *sim.Proc, n int) { b.XB.Buffers.Release(n) }
	end := off + int64(n)
	gen := f.File.Generation()
	parts, ahead := f.rs.plan(gen, off, end)
	g := p.Fork()
	sent, held := 0, 0
	deliver := func() {
		pt := parts[sent]
		sent++
		pt.pc.landed.Wait(p)
		if err == nil {
			err = pt.pc.err
		}
		if err == nil {
			if err = send(p, int(pt.hi-pt.lo)); err == nil {
				done += int(pt.hi - pt.lo)
			}
		}
		if pt.own {
			b.XB.Buffers.Release(len(pt.pc.buf))
			held--
		}
	}
	for i := range parts {
		if parts[i].pc != nil {
			continue
		}
		for held == pipelineDepth {
			deliver()
		}
		if err != nil {
			parts = parts[:i] // issue no more; drain what was
			break
		}
		parts[i].pc = f.issue(g, parts[i].lo, make([]byte, parts[i].hi-parts[i].lo), nil)
		parts[i].own = true
		held++
	}
	if ahead && err == nil {
		f.lookAhead(p, gen, off, end, release)
	}
	for sent < len(parts) {
		deliver()
	}
	return done, err
}
