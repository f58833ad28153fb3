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
// read that finds the generation moved drops it.  Every buffer a piece lands
// in comes from the board's free lists (bufs) and goes back to them once
// nothing can see it; an FSRead result is lent to its process until that
// process's next FSRead on the board.

// windowBytes is a handle's read window.
const windowBytes = pipelineDepth * PipelineChunk

// window is a look-ahead: the pieces of [off, off+len(buf)), issued at once.
type window struct {
	gen    uint64 // the file's generation when it was issued
	off    int64
	buf    []byte // the pieces' bytes, in file order
	pieces []*piece
	lo     int64 // what no read has taken yet: [lo, off+len(buf))
	refs   int   // what can still see buf: pieces landing in it, the handle, gathers, leases
	lost   bool  // a lease on it was forgotten: buf goes to the collector, not a list
}

// piece is at most PipelineChunk bytes of a source at off, read into buf.
type piece struct {
	off    int64
	buf    []byte
	got    int // bytes the source had there
	err    error
	landed *sim.Event
}

// part is the range [lo, hi) of a read that piece pc covers.  w is the
// window pc belongs to; nil for a piece the read issues itself.
type part struct {
	pc     *piece
	lo, hi int64
	w      *window
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
		f.Board.bufs.drop(f.win)
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
		parts = append(parts, part{pc: pc, lo: at, hi: w.lo, w: w})
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
	bufs := &f.Board.bufs
	if f.win != nil { // before the get, so its buffer can be the new one's
		bufs.drop(f.win)
	}
	w := &window{gen: gen, off: end, buf: bufs.get(int(hi - end)), lo: end, refs: 1}
	landed := func(q *sim.Proc, pc *piece) error {
		err := land(q, pc)
		bufs.drop(w)
		return err
	}
	g := sim.NewGroup(f.Board.sys.Eng)
	for _, pt := range split(end, hi) {
		w.refs++
		w.pieces = append(w.pieces, f.Board.issue(g, f.read, pt.lo, w.buf[pt.lo-end:pt.hi-end], landed))
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
// lands, in the reading process p.  A part with no piece yet is issued here,
// into a buffer from the board's lists, and holds its DRAM and its buffer
// until send is done with it; with pipelineDepth of them held, p sends the
// oldest before it issues another.  ahead, when not nil, runs once every
// part is issued, unless one failed first.  inOrder returns how many bytes
// send took before the first failure, the read's or send's.
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
		if pt.w == nil {
			b.XB.Buffers.ReleaseN(len(pt.pc.buf))
			b.bufs.put(pt.pc.buf, true)
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
		parts[i].pc = b.issue(g, src, parts[i].lo, b.bufs.get(int(parts[i].hi-parts[i].lo)), nil)
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
// the file had there, and what of the board's buffers they hold.  A part
// with no piece yet is issued into the result, a buffer from the board's
// lists, at most pipelineDepth in flight, and land runs in its process as it
// lands and gives its DRAM back; a part the window held is copied in.  A read
// the window holds whole returns the window's bytes.  ahead, when not nil,
// runs once every part is issued.
func (f *FSFile) gather(p *sim.Proc, off int64, size int, parts []part, land func(q *sim.Proc, pc *piece) error, ahead func()) ([]byte, loan, error) {
	bufs := &f.Board.bufs
	var w *window // the window the read takes parts of, held until it has them
	for _, pt := range parts {
		if pt.w != nil {
			w = pt.w
			w.refs++ // before the first wait, while the handle still holds it
			break
		}
	}
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
				out = bufs.get(size)
			}
			pl.take(p)
			parts[i].pc = f.Board.issue(g, f.read, pt.lo, out[pt.lo-off:pt.hi-off], own)
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
			if out != nil && pt.w != nil {
				copy(out[pt.lo-off:], pt.pc.buf[pt.lo-pt.pc.off:hi-pt.pc.off])
			}
			total = max(total, hi-off)
		}
	}
	if out == nil {
		if len(parts) == 0 {
			return []byte{}, loan{}, err
		}
		first := parts[0].pc
		return first.buf[off-first.off : off-first.off+total : off-first.off+total], loan{w: w}, err
	}
	if w != nil {
		bufs.drop(w)
	}
	return out[:total], loan{buf: out}, err
}

// The board's stream buffers come in classes: a buffer's capacity is k
// pieces, k from 1 to pipelineDepth (a whole window), and class k has its own
// free list, so a list never holds a buffer too small for what is asked of
// it.  A result larger than a window is made for its read and left to the
// collector.  Each list keeps at most pipelineDepth buffers, as many as a
// read keeps pieces in flight.  The lease table has pipelineDepth slots, one
// per process that reads the board; when every slot is taken a new lease
// evicts another, whose buffer is then forgotten, never recycled.
const leaseSlots = pipelineDepth

// streamBufs are a board's recycled read buffers: the windows, the pieces
// inOrder issues, and gather's results.
type streamBufs struct {
	free   [pipelineDepth]bytepath.FreeList // free[k-1] holds buffers of k pieces
	leases [leaseSlots]lease
	evict  int // the slot the next lease replaces when every slot is taken
	held   int // buffers of a class out of the lists and not forgotten
}

// loan is what of the stream's buffers a read result holds: its own buffer,
// or one reference to the window it slices.  The zero loan holds nothing.
type loan struct {
	buf []byte
	w   *window
}

// lease is the loan of process pid's last FSRead on the board.
type lease struct {
	pid uint64
	loan
}

func newStreamBufs() (s streamBufs) {
	for k := range s.free {
		s.free[k] = bytepath.NewFreeList(pipelineDepth)
	}
	return s
}

// class is the count of pieces a buffer of n bytes is made with, 0 for one
// larger than a window.
func class(n int) int {
	if k := (n + PipelineChunk - 1) / PipelineChunk; k <= pipelineDepth {
		return max(k, 1)
	}
	return 0
}

// get returns a buffer of n bytes, holding whatever its last user left.
func (s *streamBufs) get(n int) []byte {
	k := class(n)
	if k == 0 {
		return make([]byte, n)
	}
	s.held++
	if s.free[k-1].Len() == 0 {
		return make([]byte, n, k*PipelineChunk)
	}
	return s.free[k-1].Get(n)
}

// put takes back a buffer from get that nothing can see any more: to its
// list when keep is set and the list has room, else to the collector.
func (s *streamBufs) put(buf []byte, keep bool) {
	if k := class(cap(buf)); k > 0 && k*PipelineChunk == cap(buf) { // not one made for its read
		s.held--
		if keep {
			s.free[k-1].Put(buf[:cap(buf)])
		}
	}
}

// drop ends one reference to w; the last gives its buffer back.
func (s *streamBufs) drop(w *window) {
	if w.refs--; w.refs == 0 {
		s.put(w.buf, !w.lost)
	}
}

// end gives back what l holds (keep), or forgets it: its holder may still
// read it, so its buffer goes to the collector once nothing else sees it.
func (s *streamBufs) end(l loan, keep bool) {
	if l.w != nil {
		l.w.lost = l.w.lost || !keep
		s.drop(l.w)
	}
	s.put(l.buf, keep)
}

// release ends process pid's lease on the board, if it has one.
func (s *streamBufs) release(pid uint64) {
	for i := range s.leases {
		if s.leases[i].pid == pid {
			s.end(s.leases[i].loan, true)
			s.leases[i] = lease{}
		}
	}
}

// lend records l as process pid's lease.  When every slot is taken, the
// slots are evicted in turn.
func (s *streamBufs) lend(pid uint64, l loan) {
	slot := s.evict
	for i := range s.leases {
		if s.leases[i].pid == 0 {
			slot = i
			break
		}
	}
	if s.leases[slot].pid != 0 {
		s.evict = (slot + 1) % leaseSlots
		s.end(s.leases[slot].loan, false)
	}
	s.leases[slot] = lease{pid: pid, loan: l}
}
