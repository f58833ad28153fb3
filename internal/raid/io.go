package raid

import (
	"cmp"
	"slices"

	"raidii/internal/sim"
)

// Read reads sectors [lba, lba+n) from the logical address space into a
// fresh buffer; see ReadInto.
func (a *Array) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	buf := make([]byte, n*a.secSize)
	if err := a.ReadInto(p, lba, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto reads the len(dst)/SectorSize sectors at logical lba into the
// caller's dst.  Extents on different devices are issued in parallel, each
// landing in its own slot of dst.  A stripe where the request wants rows of
// a lost column is served as one plan (readStripe): the lost rows are
// reconstructed from the surviving columns and parity, and each survivor is
// read once for the solve and the request together.  A read that touches a
// lost stripe reports ErrArrayFailed, and reads nothing, rather than serve
// zeros or stale bytes for the sectors the stripe lost.
func (a *Array) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	n := a.wholeSectors(len(dst))
	a.checkRange(lba, n)
	exts := a.extents(lba, n)
	for _, ext := range exts {
		if a.readLost(ext.stripe) {
			return errLost(ext.stripe)
		}
	}
	defer p.Span("raid", "read")()
	a.inflight++
	defer func() { a.inflight-- }()
	if a.arrayLock != nil {
		a.arrayLock.Acquire(p)
		defer a.arrayLock.Release()
	}
	g := p.Fork()
	for len(exts) > 0 {
		i := 1
		for i < len(exts) && exts[i].stripe == exts[0].stripe {
			i++
		}
		stripe := exts[:i]
		exts = exts[i:]
		if a.degraded(stripe) {
			g.Go("raid-read-stripe", func(q *sim.Proc) error { return a.readStripe(q, stripe, dst) })
			continue
		}
		for _, ext := range stripe {
			g.Go("raid-read", func(q *sim.Proc) error { return a.readExtentInto(q, ext, dst) })
		}
	}
	if err := g.Wait(p); err != nil {
		return err
	}
	a.stats.Reads++
	return nil
}

// degraded reports whether a read's extents in one stripe want rows of a
// lost column at a level that solves for them.
func (a *Array) degraded(exts []extent) bool {
	if a.row.checks == 0 {
		return false
	}
	for _, ext := range exts {
		if !a.live(a.colDev(ext.stripe, ext.pos), ext.stripe) {
			return true
		}
	}
	return false
}

// wholeSectors returns the sector count of a transfer buffer.
func (a *Array) wholeSectors(length int) int {
	if length%a.secSize != 0 {
		//lint:allow simpanic misaligned buffer is caller corruption; LFS and the benchmarks always build whole-sector buffers
		panic("raid: transfer length not a whole number of sectors")
	}
	return length / a.secSize
}

// chunk returns the part of a request buffer that extent ext covers.
func (a *Array) chunk(buf []byte, ext extent) []byte {
	return buf[ext.bufOff : ext.bufOff+ext.secs*a.secSize]
}

// readExtentInto reads one run within a single stripe unit into its slot of
// the request buffer dst.  A device error escalates (the disk is marked
// failed) and the extent is served over the degraded path instead — the
// mirror copy, or the stripe's plan — so the caller still gets correct
// bytes, or the typed data-loss error when that lost the stripe.
func (a *Array) readExtentInto(p *sim.Proc, ext extent, dst []byte) error {
	role := a.dataRole(ext.pos)
	dev := a.colDev(ext.stripe, role)
	lba := a.unitLBA(ext.stripe) + int64(ext.secOff)
	if a.live(dev, ext.stripe) && a.devReadInto(p, dev, lba, a.chunk(dst, ext)) {
		return nil
	}
	if a.readLost(ext.stripe) {
		return errLost(ext.stripe)
	}
	if !a.row.mirrored {
		return a.readStripe(p, []extent{ext}, dst)
	}
	a.stats.DegradedReads++
	p.Span("raid", "degraded")()
	if a.devReadInto(p, dev^1, lba, a.chunk(dst, ext)) { // live, as the stripe is not lost
		return nil
	}
	return errLost(ext.stripe)
}

// rows is a run of sector rows of a stripe unit, [lo, hi); a stripe's
// columns share their rows.
type rows struct{ lo, hi int }

func (e extent) rows() rows { return rows{e.secOff, e.secOff + e.secs} }

// hull returns the smallest run covering r and o; an empty r covers nothing.
func (r rows) hull(o rows) rows {
	if r.lo == r.hi {
		return o
	}
	return rows{min(r.lo, o.lo), max(r.hi, o.hi)}
}

// joins reports whether r and o overlap or touch, so one read covers both
// without reading a row neither needs.
func (r rows) joins(o rows) bool { return r.lo <= o.hi && o.lo <= r.hi }

// covers reports whether r holds every row of o.
func (r rows) covers(o rows) bool { return r.lo <= o.lo && o.hi <= r.hi }

// readStripe serves a read's extents in one stripe, some of them on lost
// columns, as one plan.  The solve needs the rows of every lost extent; each
// surviving column is read once, over those rows and whatever rows the
// request wants of it, when the two join (or twice, when rows neither needs
// lie between them), and the request's rows are copied out of the same
// buffer, or land in place when the solve needs no others.  A read that
// fails loses its column for the rest of the operation, and the solve falls
// back to what survived; an extent the failed column held joins the solve,
// or, when the survivors were not read over its rows, the next round of the
// plan.
func (a *Array) readStripe(p *sim.Proc, exts []extent, dst []byte) error {
	defer p.Span("raid", "reconstruct")()
	v := a.view(exts[0].stripe, false)
	sc := a.newScratch()
	defer sc.release()
	a.stats.DegradedReads++
	for len(exts) > 0 {
		if err := v.covered(); err != nil {
			return err
		}
		var err error
		if exts, err = v.readRound(p, sc, exts, dst); err != nil {
			return err
		}
	}
	return nil
}

// readRound is one round of readStripe's plan; it returns the extents it
// could not serve.
func (v *stripeView) readRound(p *sim.Proc, sc *scratch, exts []extent, dst []byte) ([]extent, error) {
	a := v.a
	var need rows
	var lost []extent
	for _, ext := range exts {
		if v.lost(ext.pos) {
			need = need.hull(ext.rows())
			lost = append(lost, ext)
		}
	}
	var pl *solvePlan
	switch len(lost) {
	case 0:
	case 1: // solved straight into the request buffer
		pl = v.plan(sc, int64(need.lo), (need.hi-need.lo)*a.secSize, lost[0].pos, a.chunk(dst, lost[0]))
	default:
		pl = v.plan(sc, int64(need.lo), (need.hi-need.lo)*a.secSize, -1, nil)
	}
	served := make([]bool, len(exts))
	g := p.Fork()
	for dev := range v.cols {
		role := a.Role(v.stripe, dev)
		if v.lost(role) {
			continue
		}
		i := slices.IndexFunc(exts, func(e extent) bool { return e.pos == role })
		rides := i >= 0 && pl != nil && need.joins(exts[i].rows())
		if i >= 0 && !rides {
			ext := exts[i]
			g.Go("raid-read", func(q *sim.Proc) error {
				served[i] = v.read(q, role, int64(ext.secOff), a.chunk(dst, ext))
				return nil
			})
		}
		if pl == nil {
			continue
		}
		if !rides {
			pl.goRead(g, role, int64(need.lo), sc.col(pl.n), nil)
			continue
		}
		ext := exts[i]
		if r := need.hull(ext.rows()); r != ext.rows() {
			buf := sc.col((r.hi - r.lo) * a.secSize)
			pl.goRead(g, role, int64(r.lo), buf, func() {
				at := (ext.secOff - r.lo) * a.secSize
				copy(a.chunk(dst, ext), buf[at:])
				served[i] = true
			})
			continue
		}
		// The solve needs no rows the request does not want of this
		// column: it reads straight into its place in the request.
		pl.goRead(g, role, int64(ext.secOff), a.chunk(dst, ext), func() { served[i] = true })
	}
	if err := g.Wait(p); err != nil {
		return nil, err
	}
	if pl != nil {
		if err := pl.finish(p); err != nil {
			return nil, err
		}
	}
	var left []extent
	for i, ext := range exts {
		switch {
		case served[i], len(lost) == 1 && ext == lost[0]:
		case pl != nil && need.covers(ext.rows()):
			at := (ext.secOff - need.lo) * a.secSize
			copy(a.chunk(dst, ext), pl.cols[ext.pos][at:])
		default:
			left = append(left, ext)
		}
	}
	return left, nil
}

// Write writes data (a whole number of sectors) at logical lba.  Stripes
// fully covered by the request take the efficient full-stripe path (parity
// computed from the new data alone, all columns written in parallel);
// partial stripes pay the Level 5 small-write penalty: read old data and
// parity, compute the delta, write new data and parity — the "four disk
// accesses" the paper cites as the weakness LFS exists to avoid.
func (a *Array) Write(p *sim.Proc, lba int64, data []byte) error {
	n := a.wholeSectors(len(data))
	a.checkRange(lba, n)
	defer p.Span("raid", "write")()
	a.inflight++
	defer func() { a.inflight-- }()
	if a.arrayLock != nil {
		a.arrayLock.Acquire(p)
		defer a.arrayLock.Release()
	}
	return a.perStripe(p, lba, n, "raid-write-stripe", func(q *sim.Proc, stripe int64, exts []extent) error {
		return a.writeStripe(q, stripe, exts, data)
	})
}

// perStripe runs fn for the extents of a write in every stripe, in parallel;
// it returns the first error, or counts the write.  The extents come in
// stripe order.
func (a *Array) perStripe(p *sim.Proc, lba int64, n int, name string, fn func(q *sim.Proc, stripe int64, exts []extent) error) error {
	g := p.Fork()
	for exts := a.extents(lba, n); len(exts) > 0; {
		i := 1
		for i < len(exts) && exts[i].stripe == exts[0].stripe {
			i++
		}
		stripe, group := exts[0].stripe, exts[:i:i]
		g.Go(name, func(q *sim.Proc) error { return fn(q, stripe, group) })
		exts = exts[i:]
	}
	if err := g.Wait(p); err != nil {
		return err
	}
	a.stats.Writes++
	return nil
}

// fullStripe reports whether the extents cover every data column entirely.
func (a *Array) fullStripe(exts []extent) bool {
	if len(exts) != a.dataDisks() {
		return false
	}
	for _, e := range exts {
		if e.secOff != 0 || e.secs != a.unitSecs {
			return false
		}
	}
	return true
}

// WriteStreaming is the raw-hardware benchmark write mode, reproducing the
// paper's Figure 5 / Table 1 write experiment: data and parity stream to
// the disks with parity computed over the written columns only, and no old
// data or parity is ever read.  Stripes the request only partially covers
// are left with parity that does not protect their untouched columns, so
// this mode is only for raw bandwidth measurements on scratch regions —
// the file system always uses Write.
func (a *Array) WriteStreaming(p *sim.Proc, lba int64, data []byte) error {
	n := a.wholeSectors(len(data))
	a.checkRange(lba, n)
	defer p.Span("raid", "write-streaming")()
	a.inflight++
	defer func() { a.inflight-- }()
	return a.perStripe(p, lba, n, "raid-stream-stripe", func(q *sim.Proc, stripe int64, exts []extent) error {
		return a.streamStripe(q, stripe, exts, data)
	})
}

// streamStripe writes the extents and the check columns computed from them
// alone, with the data writes overlapping the parity computation.
func (a *Array) streamStripe(p *sim.Proc, stripe int64, exts []extent, data []byte) error {
	a.written.Add(stripe) // before the view: see "Rebuild and writes"
	v := a.view(stripe, true)
	if err := v.covered(); err != nil {
		return err
	}
	switch {
	case a.row.checks == 0:
		return cmp.Or(v.writeCopies(p, exts, data), v.covered()) // nothing to stream past
	case a.fullStripe(exts):
		return cmp.Or(v.writeFull(p, exts, data), v.covered())
	}
	a.stats.StreamingWrites++
	k := a.dataDisks()
	g := p.Fork()
	lo, hi := exts[0].secOff, exts[0].secOff+exts[0].secs
	for _, ext := range exts {
		lo, hi = min(lo, ext.secOff), max(hi, ext.secOff+ext.secs)
		v.goWrite(g, "stream-w", ext.pos, int64(ext.secOff), a.chunk(data, ext))
	}
	// Check columns over the written columns' union range, in parallel with
	// the data writes.
	g.Go("stream-p", func(q *sim.Proc) error {
		sc := a.newScratch()
		defer sc.release()
		span := (hi - lo) * a.secSize
		cols := make([][]byte, k)
		for _, ext := range exts {
			col := sc.col(span)
			clear(col)
			copy(col[(ext.secOff-lo)*a.secSize:], a.chunk(data, ext))
			cols[ext.pos] = col
		}
		for j := 0; j < a.row.checks; j++ {
			check := sc.col(span)
			a.encode(q, j, check, cols)
			v.write(q, k+j, int64(lo), check)
		}
		return nil
	})
	return cmp.Or(g.Wait(p), v.covered())
}
