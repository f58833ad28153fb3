package lfs

import (
	"raidii/internal/bytepath"
	"raidii/internal/sim"
)

// File is an open handle.
type File struct {
	fs   *FS
	inum uint32
}

// Inum returns the file's inode number.
func (f *File) Inum() uint32 { return f.inum }

// Generation returns the file's generation.  It moves whenever the file's
// bytes or block map change: a write, a truncate, its removal, and the
// cleaner moving one of its blocks.  Bytes read from the file at one
// generation are still its bytes while the generation has not moved.  It
// costs no simulated time and takes no lock.
func (f *File) Generation() uint64 { return f.fs.gens[f.inum] }

// touch moves file inum's generation.  Callers run it once the change is
// complete, so a read that resolves meanwhile sees the old generation and
// its copy is dropped.
func (fs *FS) touch(inum uint32) {
	fs.genSeq++
	fs.gens[inum] = fs.genSeq
}

// Size returns the file's current size.
func (f *File) Size(p *sim.Proc) (int64, error) {
	f.fs.mu.Acquire(p)
	defer f.fs.mu.Release()
	in, err := f.fs.loadInode(p, f.inum)
	if err != nil {
		return 0, err
	}
	return in.Size, nil
}

// WriteAt writes data at offset off, extending the file as needed.  All
// data lands in the current in-memory segment; call Sync or Checkpoint for
// durability.  The first and last blocks the write covers only in part keep
// the rest of their bytes: when they are on the device, the two are read
// together with fs.mu given back before the write goes on.
func (f *File) WriteAt(p *sim.Proc, data []byte, off int64) (int, error) {
	fs := f.fs
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	in, err := fs.loadInode(p, f.inum)
	if err != nil {
		return 0, err
	}
	if in.Mode == ModeDir {
		return 0, ErrIsDir
	}
	pre := fs.partialBlocks(p, in, off, len(data))
	if len(pre) > 0 {
		if err := fs.preRead(p, pre); err != nil {
			return 0, err
		}
		if in, err = fs.loadInode(p, f.inum); err != nil { // removed meanwhile
			return 0, err
		}
	}
	n, err := fs.writeAtLocked(p, in, data, off, pre)
	fs.stats.WriteOps++
	fs.stats.BytesWritten += uint64(n)
	return n, err
}

// preread is a block a write reads before it writes: file block fb, which
// resolved to addr in a segment whose usageSeq was seq, and its bytes b.
type preread struct {
	fb, addr int64
	seq      uint64
	b        []byte
}

// partialBlocks returns the first and last blocks of an n-byte write at off
// that the write covers only in part and that are on the device.  A hole, a
// staged block and one whose address does not resolve need no read here.
func (fs *FS) partialBlocks(p *sim.Proc, in *inode, off int64, n int) []preread {
	if n == 0 {
		return nil
	}
	end := off + int64(n)
	var pre []preread
	for _, fb := range [2]int64{off / BlockSize, (end - 1) / BlockSize} {
		if fb*BlockSize >= off && (fb+1)*BlockSize <= end || len(pre) > 0 && pre[0].fb == fb {
			continue
		}
		addr, err := fs.getBlockAddr(p, in, fb)
		if err != nil || addr == 0 || fs.stagedBlock(addr) != nil {
			continue
		}
		pre = append(pre, preread{fb: fb, addr: addr, seq: fs.usageSeq[fs.segOf(addr)]})
	}
	return pre
}

// preRead reads the blocks of pre with fs.mu given back, and takes it again.
func (fs *FS) preRead(p *sim.Proc, pre []preread) error {
	addrs := make([]int64, len(pre))
	for i := range pre {
		addrs[i] = pre[i].addr
	}
	buf := make([]byte, len(pre)*BlockSize)
	fs.mu.Release()
	err := fs.fetch(p, addrs, buf)
	fs.mu.Acquire(p)
	for i := range pre {
		pre[i].b = slot(buf, int64(i))
	}
	return err
}

// prereadOf returns the bytes pre read of file block fb if they are still the
// block's: it resolves to the same address, whose segment has not been
// cleaned and resealed since.  Otherwise nil.
func (fs *FS) prereadOf(pre []preread, fb, addr int64) []byte {
	for _, r := range pre {
		if r.fb == fb && r.addr == addr && fs.usageSeq[fs.segOf(addr)] == r.seq {
			return r.b
		}
	}
	return nil
}

// writeAtLocked writes data at off into in; pre holds the partial blocks
// read before the lock (partialBlocks), if any.  Caller holds fs.mu.
func (fs *FS) writeAtLocked(p *sim.Proc, in *inode, data []byte, off int64, pre []preread) (int, error) {
	defer fs.touch(in.Inum)
	written := 0
	for written < len(data) {
		fb := (off + int64(written)) / BlockSize
		bo := int((off + int64(written)) % BlockSize)
		n := BlockSize - bo
		if n > len(data)-written {
			n = len(data) - written
		}
		chunk := data[written : written+n]

		addr, err := fs.getBlockAddr(p, in, fb)
		if err != nil {
			return written, err
		}
		if b := fs.currentSlot(addr); b != nil {
			copy(b[bo:], chunk) // still in the current segment: patch its slot
		} else {
			var old []byte // what the chunk does not cover; nil for a hole or a whole block
			if addr != 0 && n < BlockSize {
				if old = fs.prereadOf(pre, fb, addr); old == nil {
					if old, err = fs.readBlock(p, addr); err != nil {
						return written, err
					}
				}
			}
			newAddr, b, err := fs.appendSlot(p, kindData, in.Inum, uint32(fb))
			if err != nil {
				return written, err
			}
			if old != nil {
				copy(b, old)
			} else { // a hole: zero what the chunk does not cover
				clear(b[:bo])
				clear(b[bo+n:])
			}
			copy(b[bo:], chunk)
			fs.killBlock(addr)
			if err := fs.setBlockAddr(p, in, fb, newAddr); err != nil {
				return written, err
			}
		}
		written += n
	}
	if off+int64(len(data)) > in.Size {
		in.Size = off + int64(len(data))
	}
	in.MTime = int64(p.Now())
	fs.dirtyInode(in)
	return written, nil
}

// ReadAt reads up to n bytes at offset off; short reads happen only at end
// of file.  Block addresses are resolved under the file system lock, but
// the device reads themselves run outside it, so large reads from several
// client processes proceed in parallel.  Blocks that are contiguous in the
// log coalesce into single large device reads — this is what lets LFS
// deliver array bandwidth on big files laid out segment-at-a-time.
func (f *File) ReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	return f.readAtRaw(p, off, n, nil, 0, nil)
}

// ReadAtInto is ReadAt into the caller's dst: it reads up to len(dst) bytes
// at offset off and returns how many it read.  Each run of blocks that is
// contiguous in the log and block-aligned in the file lands straight in
// dst; dst is not retained.
func (f *File) ReadAtInto(p *sim.Proc, off int64, dst []byte) (int, error) {
	out, err := f.readAtRaw(p, off, len(dst), dst, 0, nil)
	return len(out), err
}

// ReadAtPieces is ReadAtInto that hands the result over as it lands.  Each
// run of blocks contiguous in the log is read as device commands of at most
// piece bytes of whole blocks (at least one block), all in flight at once.
// ready(q, o, n) is called once dst[o:o+n] is final: by the process whose
// command read it, or, for holes and staged blocks, by p as soon as the
// commands are issued.  Every byte of the result is handed over exactly
// once.  An error from ready fails the read.
func (f *File) ReadAtPieces(p *sim.Proc, off int64, dst []byte, piece int, ready func(q *sim.Proc, off, n int) error) (int, error) {
	out, err := f.readAtRaw(p, off, len(dst), dst, max(piece/BlockSize, 1), ready)
	return len(out), err
}

// readPiece is one block's share of a read.
type readPiece struct {
	addr   int64 // the block's log address, for a piece on the device
	bufOff int   // offset in the result
	off    int   // offset within the block
	n      int
}

// readPlan is one read's layout: its pieces on the device in one slab, in
// the order of the result, the runs cut from that slab (a run is pieces of
// blocks contiguous in the log, one per block), and the ranges of the
// result settled from memory.  Plans are recycled through fs.plans, so a
// warm read allocates none of it.
type readPlan struct {
	pieces  []readPiece
	runs    [][]readPiece
	settled []readPiece
}

// takePlan returns an empty plan, recycled if the FS has one.
func (fs *FS) takePlan() *readPlan {
	if k := len(fs.plans); k > 0 {
		pl := fs.plans[k-1]
		fs.plans = fs.plans[:k-1]
		return pl
	}
	return new(readPlan)
}

// putPlan recycles pl, which nothing may use any more.
func (fs *FS) putPlan(pl *readPlan) {
	pl.pieces, pl.runs, pl.settled = pl.pieces[:0], pl.runs[:0], pl.settled[:0]
	fs.plans = append(fs.plans, pl)
}

// cutRuns cuts the slab into runs: a piece joins the run before it when it
// continues it in the log and both sides are whole at the seam.
func (pl *readPlan) cutRuns() {
	lo := 0
	for i := 1; i <= len(pl.pieces); i++ {
		if i < len(pl.pieces) {
			prev, pc := pl.pieces[i-1], pl.pieces[i]
			if prev.addr+1 == pc.addr && prev.off+prev.n == BlockSize && pc.off == 0 {
				continue
			}
		}
		pl.runs = append(pl.runs, pl.pieces[lo:i])
		lo = i
	}
}

// readAtRaw is the one read path.  It serves ReadAt (dst nil: the result is
// allocated once its length is known) and ReadAtInto and ReadAtPieces (the
// result is a prefix of dst): dst[:n], n being clamped to the file size.
// The range is resolved once under fs.mu; then each run is read as commands
// of at most per blocks (0: the whole run in one command), and ready, when
// not nil, is handed each range of the result as it is settled.
func (f *File) readAtRaw(p *sim.Proc, off int64, n int, dst []byte, per int, ready func(q *sim.Proc, off, n int) error) ([]byte, error) {
	fs := f.fs
	fs.mu.Acquire(p)
	pl := fs.takePlan()
	out, err := fs.resolve(p, f.inum, off, n, dst, ready != nil, pl)
	fs.mu.Release()
	if out == nil {
		fs.putPlan(pl)
		return nil, err // an error, or off at or past EOF
	}

	// Read the commands in parallel, then hand over what memory settled.
	g := p.Fork()
	for _, r := range pl.runs {
		step := len(r)
		if per > 0 {
			step = per
		}
		for j := 0; j < len(r); j += step {
			cmd := r[j:min(j+step, len(r))]
			g.Go("lfs-read-run", func(q *sim.Proc) error {
				if err := fs.readRun(q, cmd, out); err != nil {
					return err
				}
				return handOver(q, cmd, ready)
			})
		}
	}
	err = handOver(p, pl.settled, ready)
	if werr := g.Wait(p); err == nil {
		err = werr
	}
	fs.putPlan(pl)
	if err != nil {
		return nil, err
	}
	fs.stats.ReadOps++
	fs.stats.BytesRead += uint64(len(out))
	return out, nil
}

// readRun reads run r into its pieces' places in out, as one device
// command.  A run of whole blocks that are adjacent in the file lands
// straight in its part of the result; one that starts or ends inside a
// block, or skips over a hole or a staged block, goes through a buffer
// from fs.runBufs, which the read overwrites whole.
func (fs *FS) readRun(p *sim.Proc, r []readPiece, out []byte) error {
	first, last := r[0], r[len(r)-1]
	direct := first.off == 0 && last.off+last.n == BlockSize
	for j := 1; j < len(r) && direct; j++ {
		direct = r[j-1].bufOff+r[j-1].n == r[j].bufOff
	}
	if direct {
		return bytepath.ReadInto(fs.dev, p, first.addr*int64(fs.blockSectors), out[first.bufOff:last.bufOff+last.n])
	}
	buf := fs.runBufs.Get(len(r) * BlockSize)
	err := bytepath.ReadInto(fs.dev, p, first.addr*int64(fs.blockSectors), buf)
	if err == nil {
		for j, pc := range r {
			copy(out[pc.bufOff:pc.bufOff+pc.n], buf[j*BlockSize+pc.off:])
		}
	}
	fs.runBufs.Put(buf)
	return err
}

// handOver calls ready once for each range of the result that pcs cover,
// pieces adjacent in the result together.  A nil ready is a no-op.
func handOver(p *sim.Proc, pcs []readPiece, ready func(q *sim.Proc, off, n int) error) error {
	for i := 0; i < len(pcs) && ready != nil; {
		lo, hi := pcs[i].bufOff, pcs[i].bufOff+pcs[i].n
		for i++; i < len(pcs) && pcs[i].bufOff == hi; i++ {
			hi += pcs[i].n
		}
		if err := ready(p, lo, hi-lo); err != nil {
			return err
		}
	}
	return nil
}

// resolve is readAtRaw's work under fs.mu: it clamps n to the file size,
// makes the result and settles holes and staged blocks (the current segment,
// and sealed segments whose device writes are still in flight) by clearing
// or copying out of the segment image; pieces on the device go to pl's slab
// and coalesce into pl's runs.  With track set, pl.settled lists the ranges
// of the result it settled.  out is nil on an error and when off is at or
// past EOF.
func (fs *FS) resolve(p *sim.Proc, inum uint32, off int64, n int, dst []byte, track bool, pl *readPlan) (out []byte, err error) {
	in, err := fs.loadInode(p, inum)
	if err != nil {
		return nil, err
	}
	if in.Mode == ModeDir {
		return nil, ErrIsDir
	}
	if off >= in.Size {
		return nil, nil
	}
	if int64(n) > in.Size-off {
		n = int(in.Size - off)
	}
	out = dst
	if out == nil {
		out = make([]byte, n)
	}
	out = out[:n]
	for got := 0; got < n; {
		fb := (off + int64(got)) / BlockSize
		bo := int((off + int64(got)) % BlockSize)
		l := BlockSize - bo
		if l > n-got {
			l = n - got
		}
		addr, err := fs.getBlockAddr(p, in, fb)
		if err != nil {
			return nil, err
		}
		pc := readPiece{addr: addr, bufOff: got, off: bo, n: l}
		got += l
		if addr == 0 {
			clear(out[pc.bufOff:got])
		} else if b := fs.stagedBlock(addr); b != nil {
			copy(out[pc.bufOff:got], b[bo:])
		} else {
			pl.pieces = append(pl.pieces, pc)
			continue
		}
		if track {
			pl.settled = append(pl.settled, pc)
		}
	}
	pl.cutRuns()
	return out, nil
}

// Truncate discards the file's contents beyond size zero.  (Partial
// truncation is not needed by any workload in the paper.)
func (f *File) Truncate(p *sim.Proc) error {
	f.fs.mu.Acquire(p)
	defer f.fs.mu.Release()
	in, err := f.fs.loadInode(p, f.inum)
	if err != nil {
		return err
	}
	if in.Mode == ModeDir {
		return ErrIsDir
	}
	err = f.fs.freeInodeBlocks(p, in)
	f.fs.touch(f.inum)
	if err != nil {
		return err
	}
	in.MTime = int64(p.Now())
	f.fs.dirtyInode(in)
	return nil
}

// Sync makes this file durable: its data blocks and inode are flushed to
// the log and the segment is sealed (fsync semantics).  Other files'
// dirty state rides along only if it shares the sealed segment.
func (f *File) Sync(p *sim.Proc) error {
	fs := f.fs
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	if fs.idirty.Has(f.inum) {
		if err := fs.appendInode(p, fs.icache[f.inum]); err != nil {
			return err
		}
		fs.idirty.Remove(f.inum)
	}
	if err := fs.sealSegment(p); err != nil {
		return err
	}
	return fs.waitSeals(p)
}
