package raid

import (
	"cmp"
	"fmt"

	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// declareLost latches the sticky array-failed state and returns the typed
// data-loss error with operation context.  Shared mutation is safe under
// the cooperative scheduler: only one proc runs at a time.
func (a *Array) declareLost(op string) error {
	a.lost = true
	return fmt.Errorf("raid: %s: %w", op, ErrArrayFailed)
}

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
// landing in its own slot of dst; extents on a failed device are
// reconstructed from the surviving columns and parity.  Once failures
// exceed the level's redundancy the array is failed and every read reports
// ErrArrayFailed instead of serving zeros for the lost sectors.
func (a *Array) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	n := a.wholeSectors(len(dst))
	a.checkRange(lba, n)
	if err := a.errIfLost("read"); err != nil {
		return err
	}
	end := p.Span("raid", "read")
	defer end()
	a.inflight++
	defer func() { a.inflight-- }()
	if a.arrayLock != nil {
		a.arrayLock.Acquire(p)
		defer a.arrayLock.Release()
	}
	g := p.Fork()
	for _, ext := range a.extents(lba, n) {
		g.Go("raid-read", func(q *sim.Proc) error {
			return a.readExtentInto(q, ext, a.chunk(dst, ext))
		})
	}
	if err := g.Wait(p); err != nil {
		return err
	}
	a.stats.Reads++
	return nil
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

// readExtentInto reads one run within a single stripe unit into dst.  A
// device error escalates (the disk is marked failed) and the extent is
// served over the degraded path instead — the mirror copy, or the solve over
// the surviving columns — so the caller still gets correct bytes, or the
// typed data-loss error when no redundancy remains.
func (a *Array) readExtentInto(p *sim.Proc, ext extent, dst []byte) error {
	role := a.dataRole(ext.pos)
	dev := a.colDev(ext.stripe, role)
	lba := a.unitLBA(ext.stripe) + int64(ext.secOff)
	if !a.failed[dev] && a.devReadInto(p, dev, lba, dst) {
		return nil
	}
	if err := a.errIfLost("read"); err != nil {
		return err
	}
	a.stats.DegradedReads++
	if a.row.mirrored {
		telemetry.MarkDegraded(p)
		if a.devReadInto(p, dev^1, lba, dst) {
			return nil
		}
		return a.declareLost("read: both members of a mirror pair lost")
	}
	sc := a.newScratch()
	defer sc.release()
	_, err := a.view(ext.stripe, false).readSolve(p, sc, int64(ext.secOff), len(dst), role, dst)
	return err
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
	if err := a.errIfLost("write"); err != nil {
		return err
	}
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

// perStripe groups the extents of a write by stripe and runs fn for every
// stripe in parallel; it returns the first error, or counts the write.
func (a *Array) perStripe(p *sim.Proc, lba int64, n int, name string, fn func(q *sim.Proc, stripe int64, exts []extent) error) error {
	groups := make(map[int64][]extent)
	var order []int64
	for _, ext := range a.extents(lba, n) {
		if _, ok := groups[ext.stripe]; !ok {
			order = append(order, ext.stripe)
		}
		groups[ext.stripe] = append(groups[ext.stripe], ext)
	}
	g := p.Fork()
	for _, stripe := range order {
		exts := groups[stripe]
		g.Go(name, func(q *sim.Proc) error { return fn(q, stripe, exts) })
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
	if err := a.errIfLost("streaming write"); err != nil {
		return err
	}
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
	a.written[stripe] = true // before the view: see "Rebuild and writes"
	v := a.view(stripe, true)
	switch {
	case a.row.checks == 0:
		return v.writeCopies(p, exts, data) // nothing to stream past
	case a.fullStripe(exts):
		return v.writeFull(p, exts, data)
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
			if !v.lost(k + j) {
				v.write(q, k+j, int64(lo), check)
			}
		}
		return nil
	})
	return cmp.Or(g.Wait(p), a.errIfLost("streaming write"))
}
