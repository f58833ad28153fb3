package server

import (
	"cmp"

	"raidii/internal/bytepath"
	"raidii/internal/sim"
)

// This file is the one piece pipeline every board read goes through
// (DESIGN.md §17 "The read stream").  A read is cut into pieces, each one
// call to the read's source (an open file's lfs ReadAtPieces, or the
// board's raw store) in a process that holds the piece's board DRAM from
// issue until its sink is done.  Two disciplines deliver them: in order, in
// the reading process (inOrder: the client's raid_read and HardwareRead),
// and as each lands, in the piece's process (gather: FSRead and EtherRead).
// FSRead and the client read also go through the handle's window: a read
// that continues the handle's last one, when the window holds none of its
// bytes, issues the whole next window at once, and later reads take its
// pieces.  A window is the file at one generation (lfs File.Generation): a
// read that finds the generation moved drops it.

// windowBytes is a handle's read window.
const windowBytes = pipelineDepth * PipelineChunk

// window is a look-ahead: the pieces of [off, off+len(buf)), issued at once.
type window struct {
	gen    uint64 // the file's generation when it was issued
	off    int64
	buf    []byte // the pieces' bytes, in file order
	pieces []*piece
	lo     int64 // what no read has taken yet: [lo, off+len(buf))
}

// piece is at most PipelineChunk bytes of a source at off, read into buf.
type piece struct {
	off    int64
	buf    []byte
	got    int // bytes the source had there
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

// hi is where the window's bytes end.
func (w *window) hi() int64 { return w.off + int64(len(w.buf)) }

// plan lays a read of [off, end) on the handle out as parts in file order:
// the window's pieces where it holds the bytes (which the read takes out of
// it), fresh parts, not yet issued, elsewhere.  A window whose generation
// has moved is dropped first.  When the read continues the handle's last
// one and the window held none of its bytes, ahead issues the next window
// with land (lookAhead), for the read to call once its own pieces are
// issued; otherwise ahead is nil.
func (f *FSFile) plan(p *sim.Proc, off, end int64, land func(q *sim.Proc, pc *piece) error) (parts []part, ahead func()) {
	gen := f.File.Generation()
	if f.win != nil && f.win.gen != gen {
		f.win = nil
	}
	w, next := f.win, f.next
	f.next = end
	if w == nil || end <= w.lo || off >= w.hi() { // the window holds none of it
		if next > 0 && off == next {
			ahead = func() { f.lookAhead(p, gen, off, end, land) }
		}
		return split(off, end), ahead
	}
	parts = split(off, w.lo)
	for at := max(off, w.lo); at < min(end, w.hi()); at = w.lo {
		pc := w.pieces[(at-w.off)/PipelineChunk]
		w.lo = min(end, pc.off+int64(len(pc.buf)))
		parts = append(parts, part{pc: pc, lo: at, hi: w.lo})
	}
	return append(parts, split(w.hi(), end)...), nil
}

// split lays [off, end) out as fresh parts of at most PipelineChunk bytes,
// not yet issued.
func split(off, end int64) (parts []part) {
	for at := off; at < end; at += PipelineChunk {
		parts = append(parts, part{lo: at, hi: min(end, at+PipelineChunk)})
	}
	return parts
}

// source reads the bytes at off into buf and returns how many the store had
// there.
type source func(q *sim.Proc, off int64, buf []byte) (int, error)

// read is an open file's source.
func (f *FSFile) read(q *sim.Proc, off int64, buf []byte) (int, error) {
	return f.File.ReadAtPieces(q, off, buf, PipelineChunk, nil)
}

// readRaw is the board's raw source: the store the datapath reads, the
// block cache when there is one, else the array.  off and len(buf) are
// whole sectors.
func (b *Board) readRaw(q *sim.Proc, off int64, buf []byte) (int, error) {
	return len(buf), bytepath.ReadInto(b.Dev(), q, off/int64(b.Array.SectorSize()), buf)
}

// issue starts a piece reading len(buf) bytes of src at off on g.  land
// runs in the piece's process once its bytes are in and gives the piece's
// DRAM back; nil leaves the DRAM held until the piece's reader gives it
// back.  An error from land is the piece's when its read had none.
func (b *Board) issue(g *sim.Group, src source, off int64, buf []byte, land func(q *sim.Proc, pc *piece) error) *piece {
	pc := &piece{off: off, buf: buf, landed: sim.NewEvent(b.sys.Eng)}
	g.Go("read-piece", func(q *sim.Proc) error {
		b.XB.Buffers.AcquireN(q, len(buf))
		pc.got, pc.err = src(q, off, buf)
		if land != nil {
			pc.err = cmp.Or(pc.err, land(q, pc))
		}
		pc.landed.Signal()
		return pc.err
	})
	return pc
}

// lookAhead issues the window after a read of [off, end) at generation gen:
// the rest of [off, off+windowBytes), clamped to EOF, as pieces that work
// for no request.  land must give each piece's DRAM back.
func (f *FSFile) lookAhead(p *sim.Proc, gen uint64, off, end int64, land func(q *sim.Proc, pc *piece) error) {
	size, err := f.File.Size(p)
	hi := min(off+windowBytes, size)
	if err != nil || hi <= end {
		return
	}
	w := &window{gen: gen, off: end, buf: make([]byte, hi-end), lo: end}
	g := sim.NewGroup(f.Board.sys.Eng)
	for _, pt := range split(end, hi) {
		w.pieces = append(w.pieces, f.Board.issue(g, f.read, pt.lo, w.buf[pt.lo-end:pt.hi-end], land))
	}
	f.win = w
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

// inOrder reads parts from src and hands each to send in file order as it
// lands, in the reading process p.  A part with no piece yet is issued here
// and holds its DRAM until send is done with it; with pipelineDepth of them
// held, p sends the oldest before it issues another.  ahead, when not nil,
// runs once every part is issued, unless one failed first.  inOrder returns
// how many bytes send took before the first failure, the read's or send's.
func (b *Board) inOrder(p *sim.Proc, src source, parts []part, send func(p *sim.Proc, n int) error, ahead func()) (done int, err error) {
	g := p.Fork()
	sent, held := 0, 0
	deliver := func() {
		pt := parts[sent]
		sent++
		pt.pc.landed.Wait(p)
		if err = cmp.Or(err, pt.pc.err); err == nil {
			if err = send(p, int(pt.hi-pt.lo)); err == nil {
				done += int(pt.hi - pt.lo)
			}
		}
		if pt.own {
			b.XB.Buffers.ReleaseN(len(pt.pc.buf))
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
		parts[i].pc = b.issue(g, src, parts[i].lo, make([]byte, parts[i].hi-parts[i].lo), nil)
		parts[i].own = true
		held++
	}
	if err == nil && ahead != nil {
		ahead()
	}
	for sent < len(parts) {
		deliver()
	}
	return done, err
}

// Stream reads n bytes of the file at off through the handle's read stream
// and hands them to send in file order, a piece at a time, as each lands
// (inOrder): the client library's in-order ring send.  A look-ahead piece
// gives its DRAM back as it lands.  Stream returns how many bytes send took
// before the first failure, the file's or send's.
func (f *FSFile) Stream(p *sim.Proc, off int64, n int, send func(p *sim.Proc, n int) error) (int, error) {
	b := f.Board
	parts, ahead := f.plan(p, off, off+int64(n), func(_ *sim.Proc, pc *piece) error {
		b.XB.Buffers.ReleaseN(len(pc.buf))
		return nil
	})
	return b.inOrder(p, f.read, parts, send, ahead)
}

// gather reads [off, off+size) of the file as parts and returns the bytes
// the file had there.  A part with no piece yet is issued into the result,
// at most pipelineDepth in flight, and land runs in its process as it lands
// and gives its DRAM back; a part the window held is copied in.  A read the
// window holds whole returns the window's bytes.  ahead, when not nil, runs
// once every part is issued.
func (f *FSFile) gather(p *sim.Proc, off int64, size int, parts []part, land func(q *sim.Proc, pc *piece) error, ahead func()) ([]byte, error) {
	pl := places{eng: f.Board.sys.Eng}
	own := func(q *sim.Proc, pc *piece) error {
		err := land(q, pc)
		pl.give()
		return err
	}
	var out []byte
	g := p.Fork()
	for i, pt := range parts {
		if pt.pc == nil {
			if out == nil {
				out = make([]byte, size)
			}
			pl.take(p)
			parts[i].pc = f.Board.issue(g, f.read, pt.lo, out[pt.lo-off:pt.hi-off], own)
			parts[i].own = true
		}
	}
	if ahead != nil {
		ahead()
	}
	err := g.Wait(p)
	var total int64 // furthest byte delivered
	for _, pt := range parts {
		pt.pc.landed.Wait(p)
		err = cmp.Or(err, pt.pc.err)
		if hi := min(pt.hi, pt.pc.off+int64(pt.pc.got)); hi > pt.lo { // short where the file ends
			if out != nil && !pt.own {
				copy(out[pt.lo-off:], pt.pc.buf[pt.lo-pt.pc.off:hi-pt.pc.off])
			}
			total = max(total, hi-off)
		}
	}
	if out == nil {
		if len(parts) == 0 {
			return []byte{}, err
		}
		first := parts[0].pc
		return first.buf[off-first.off : off-first.off+total : off-first.off+total], err
	}
	return out[:total], err
}
