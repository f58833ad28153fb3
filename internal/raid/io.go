package raid

import (
	"bytes"
	"fmt"

	"raidii/internal/bytepath"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// goAdopted spawns a group worker that joins the parent proc's request (if
// any) and charges its work to the RAID stage; the SCSI and disk layers
// open nested frames of their own, so the raid stage keeps only its
// exclusive time (XOR, striping bookkeeping).
func goAdopted(g *sim.Group, parent *sim.Proc, name string, body func(*sim.Proc)) {
	g.Go(name, func(q *sim.Proc) {
		telemetry.Adopt(q, parent)
		defer telemetry.StageSpan(q, telemetry.StageRAID).End()
		body(q)
	})
}

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
	defer telemetry.StageSpan(p, telemetry.StageRAID).End()
	a.inflight++
	defer func() { a.inflight-- }()
	if a.arrayLock != nil {
		a.arrayLock.Acquire(p)
		defer a.arrayLock.Release()
	}
	g := sim.NewGroup(a.eng)
	var firstErr error
	for _, ext := range a.extents(lba, n) {
		ext := ext
		goAdopted(g, p, "raid-read", func(q *sim.Proc) {
			if err := a.readExtentInto(q, ext, a.chunk(dst, ext)); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	g.Wait(p)
	if firstErr != nil {
		return firstErr
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
// served over the degraded path instead, so the caller still gets correct
// bytes — or the typed data-loss error when no redundancy remains.
func (a *Array) readExtentInto(p *sim.Proc, ext extent, dst []byte) error {
	devIdx, base := a.loc(ext.stripe, ext.pos)
	physLBA := base + int64(ext.secOff)
	if !a.failed[devIdx] {
		if a.devReadInto(p, devIdx, physLBA, dst) {
			return nil
		}
		if a.cfg.Level == Level0 {
			// No redundancy: the sectors are lost and read as zeros.
			clear(dst)
			return nil
		}
	}
	switch a.cfg.Level {
	case Level1:
		a.stats.DegradedReads++
		telemetry.MarkDegraded(p)
		if a.devReadInto(p, devIdx+1, physLBA, dst) { // mirror copy
			return nil
		}
		return a.declareLost("read: both members of a mirror pair lost")
	case Level3, Level5:
		sc := a.newScratch()
		defer sc.release()
		return a.reconstructRangeInto(p, sc, ext.stripe, devIdx, int64(ext.secOff), dst)
	case Level6:
		a.stats.DegradedReads++
		telemetry.MarkDegraded(p)
		sc := a.newScratch()
		defer sc.release()
		return a.reconstruct6Into(p, sc, ext.stripe, devIdx, int64(ext.secOff), dst)
	}
	return a.declareLost("read from failed device at redundancy-free level")
}

// reconstructRangeInto rebuilds into dst the contents device devIdx holds
// in the len(dst)-byte range at secOff of a stripe, by XOR-ing every
// surviving column (data and parity) over that range.  All surviving
// columns are read in parallel into scratch columns.  A second failure
// among the sources means the range is unrecoverable at a single-parity
// level: the array flips to the sticky failed state and the typed error is
// returned.
func (a *Array) reconstructRangeInto(p *sim.Proc, sc *scratch, stripe int64, devIdx int, secOff int64, dst []byte) error {
	end := p.Span("raid", "degraded-reconstruct")
	defer end()
	a.stats.DegradedReads++
	telemetry.MarkDegraded(p)
	phys := stripe*int64(a.unitSecs) + secOff
	cols := make([][]byte, 0, len(a.devs)-1)
	g := sim.NewGroup(a.eng)
	var firstErr error
	for i := range a.devs {
		if i == devIdx {
			continue
		}
		if a.failed[i] {
			// The reads spawned above still run, and land in their columns.
			sc.abandon()
			return a.declareLost("reconstruct: second failure at a single-parity level")
		}
		i := i
		col := sc.col(len(dst))
		cols = append(cols, col)
		goAdopted(g, p, "raid-reconstruct", func(q *sim.Proc) {
			if !a.devReadInto(q, i, phys, col) && firstErr == nil {
				firstErr = a.declareLost("reconstruct: source device failed at a single-parity level")
			}
		})
	}
	g.Wait(p)
	if firstErr != nil {
		return firstErr
	}
	a.xor.XORTo(p, dst, cols...)
	return nil
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
	defer telemetry.StageSpan(p, telemetry.StageRAID).End()
	a.inflight++
	defer func() { a.inflight-- }()
	if a.arrayLock != nil {
		a.arrayLock.Acquire(p)
		defer a.arrayLock.Release()
	}

	// Group extents by stripe.
	groups := make(map[int64][]extent)
	var order []int64
	for _, ext := range a.extents(lba, n) {
		if _, ok := groups[ext.stripe]; !ok {
			order = append(order, ext.stripe)
		}
		groups[ext.stripe] = append(groups[ext.stripe], ext)
	}

	g := sim.NewGroup(a.eng)
	var firstErr error
	for _, stripe := range order {
		stripe, exts := stripe, groups[stripe]
		goAdopted(g, p, "raid-write-stripe", func(q *sim.Proc) {
			if err := a.writeStripe(q, stripe, exts, data); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	g.Wait(p)
	if firstErr != nil {
		return firstErr
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

func (a *Array) writeStripe(p *sim.Proc, stripe int64, exts []extent, data []byte) error {
	switch a.cfg.Level {
	case Level0:
		g := sim.NewGroup(a.eng)
		for _, ext := range exts {
			ext := ext
			goAdopted(g, p, "w", func(q *sim.Proc) { a.writeExtentRaw(q, ext, data) })
		}
		g.Wait(p)
		return nil
	case Level1:
		g := sim.NewGroup(a.eng)
		for _, ext := range exts {
			ext := ext
			devIdx, base := a.loc(ext.stripe, ext.pos)
			phys := base + int64(ext.secOff)
			chunk := a.chunk(data, ext)
			for _, d := range []int{devIdx, devIdx + 1} {
				d := d
				if a.failed[d] {
					continue
				}
				goAdopted(g, p, "w", func(q *sim.Proc) {
					a.devWrite(q, d, phys, chunk)
				})
			}
		}
		g.Wait(p)
		return a.errIfLost("write")
	case Level3, Level5:
		lk := a.lock(stripe)
		lk.Acquire(p)
		defer lk.Release()
		if a.fullStripe(exts) {
			return a.writeFullStripe(p, stripe, exts, data)
		}
		return a.writePartialStripe(p, stripe, exts, data)
	case Level6:
		lk := a.lock(stripe)
		lk.Acquire(p)
		defer lk.Release()
		if a.fullStripe(exts) {
			return a.writeFullStripe6(p, stripe, exts, data)
		}
		return a.writePartialStripe6(p, stripe, exts, data)
	}
	return nil
}

// writeExtentRaw writes one extent with no redundancy bookkeeping.
func (a *Array) writeExtentRaw(p *sim.Proc, ext extent, data []byte) {
	devIdx, base := a.loc(ext.stripe, ext.pos)
	phys := base + int64(ext.secOff)
	chunk := a.chunk(data, ext)
	if a.failed[devIdx] {
		return // lost: level 0 has no redundancy
	}
	a.devWrite(p, devIdx, phys, chunk)
}

// writeFullStripe computes parity from the new data alone and writes all
// columns in parallel: "large write operations in disk arrays are
// efficient since they don't require the reading of old data or parity".
func (a *Array) writeFullStripe(p *sim.Proc, stripe int64, exts []extent, data []byte) error {
	end := p.Span("raid", "full-stripe-write")
	defer end()
	a.stats.FullStripeWrites++
	cols := make([][]byte, a.dataDisks())
	for _, ext := range exts {
		cols[ext.pos] = a.chunk(data, ext)
	}
	pdev, pbase := a.parityLoc(stripe)
	sc := a.newScratch()
	defer sc.release()
	parity := sc.unit()

	// Data writes start immediately; the parity engine computes while they
	// stream, and the parity column is written as soon as it is ready.
	g := sim.NewGroup(a.eng)
	for pos, col := range cols {
		devIdx, base := a.loc(stripe, pos)
		if a.failed[devIdx] {
			continue
		}
		devIdx, base, col := devIdx, base, col
		goAdopted(g, p, "w", func(q *sim.Proc) {
			a.devWrite(q, devIdx, base, col)
		})
	}
	goAdopted(g, p, "wp", func(q *sim.Proc) {
		a.xor.XORTo(q, parity, cols...)
		if a.failed[pdev] {
			return
		}
		a.devWrite(q, pdev, pbase, parity)
	})
	g.Wait(p)
	return a.errIfLost("write")
}

// writeReconstructStripe handles a partial-stripe write that covers more
// than half the data columns: read every unit that is not fully
// overwritten (in parallel), overlay the new data, compute parity over the
// whole stripe, and write the new ranges plus parity in parallel.
func (a *Array) writeReconstructStripe(p *sim.Proc, stripe int64, exts []extent, data []byte) error {
	end := p.Span("raid", "reconstruct-write")
	defer end()
	a.stats.ReconstructWrites++
	nd := a.dataDisks()
	sc := a.newScratch()
	defer sc.release()
	cols := make([][]byte, nd)
	full := make([]bool, nd) // fully covered by new data
	for _, ext := range exts {
		if ext.secOff == 0 && ext.secs == a.unitSecs {
			full[ext.pos] = true
		}
	}
	// Read phase: every unit not fully overwritten.
	rg := sim.NewGroup(a.eng)
	for pos := 0; pos < nd; pos++ {
		if full[pos] {
			continue
		}
		pos := pos
		devIdx, base := a.loc(stripe, pos)
		old := sc.unit()
		goAdopted(rg, p, "rw-read", func(q *sim.Proc) {
			if a.devReadInto(q, devIdx, base, old) {
				cols[pos] = old
			}
		})
	}
	rg.Wait(p)
	// A column whose read failed escalated to a disk failure mid-write;
	// rebuild its old contents from the surviving columns so the new parity
	// stays correct for the sectors this request does not touch.
	for pos := 0; pos < nd; pos++ {
		if full[pos] || cols[pos] != nil {
			continue
		}
		devIdx, _ := a.loc(stripe, pos)
		if a.failed[devIdx] {
			rebuilt := sc.unit()
			if err := a.reconstructRangeInto(p, sc, stripe, devIdx, 0, rebuilt); err != nil {
				return err
			}
			cols[pos] = rebuilt
		}
	}
	// Overlay the new data.
	for _, ext := range exts {
		chunk := a.chunk(data, ext)
		if full[ext.pos] {
			cols[ext.pos] = chunk
			continue
		}
		copy(cols[ext.pos][ext.secOff*a.secSize:], chunk)
	}
	for pos := 0; pos < nd; pos++ {
		if cols[pos] == nil {
			cols[pos] = sc.unit()
			clear(cols[pos])
		}
	}
	parity := sc.unit()
	a.xor.XORTo(p, parity, cols...)
	pdev, pbase := a.parityLoc(stripe)

	wg := sim.NewGroup(a.eng)
	for _, ext := range exts {
		ext := ext
		devIdx, base := a.loc(stripe, ext.pos)
		if a.failed[devIdx] {
			continue
		}
		chunk := a.chunk(data, ext)
		goAdopted(wg, p, "rw-write", func(q *sim.Proc) {
			a.devWrite(q, devIdx, base+int64(ext.secOff), chunk)
		})
	}
	if !a.failed[pdev] {
		goAdopted(wg, p, "rw-parity", func(q *sim.Proc) {
			a.devWrite(q, pdev, pbase, parity)
		})
	}
	wg.Wait(p)
	return a.errIfLost("write")
}

// reconstructWriteApplies reports whether reconstruct-write beats
// read-modify-write for these extents: more than half the data columns are
// (at least partially) written and no device is failed.
func (a *Array) reconstructWriteApplies(exts []extent, stripe int64) bool {
	if len(a.failed) > 0 {
		return false
	}
	return 2*len(exts) > a.dataDisks()
}

// writeRMWBatched performs one combined read-modify-write for all extents
// of a stripe: old data (per extent) and old parity (over the union range)
// are read in parallel, the parity deltas are folded in, and new data and
// parity are written in parallel — four parallel disk phases total, rather
// than four serialized accesses per extent.
func (a *Array) writeRMWBatched(p *sim.Proc, stripe int64, exts []extent, data []byte) error {
	end := p.Span("raid", "rmw-write")
	defer end()
	a.stats.SmallWrites++
	pdev, pbase := a.parityLoc(stripe)

	// Union of sector ranges across extents.
	lo, hi := exts[0].secOff, exts[0].secOff+exts[0].secs
	for _, e := range exts[1:] {
		if e.secOff < lo {
			lo = e.secOff
		}
		if e.secOff+e.secs > hi {
			hi = e.secOff + e.secs
		}
	}

	sc := a.newScratch()
	defer sc.release()
	oldD := make([][]byte, len(exts))
	var oldP []byte
	rg := sim.NewGroup(a.eng)
	for i, ext := range exts {
		i, ext := i, ext
		devIdx, base := a.loc(ext.stripe, ext.pos)
		if a.failed[devIdx] {
			continue
		}
		old := sc.col(ext.secs * a.secSize)
		goAdopted(rg, p, "rmw-rd", func(q *sim.Proc) {
			if a.devReadInto(q, devIdx, base+int64(ext.secOff), old) {
				oldD[i] = old
			}
		})
	}
	parityLost := a.failed[pdev]
	if !parityLost {
		old := sc.col((hi - lo) * a.secSize)
		goAdopted(rg, p, "rmw-rp", func(q *sim.Proc) {
			if a.devReadInto(q, pdev, pbase+int64(lo), old) {
				oldP = old
			}
		})
	}
	rg.Wait(p)
	// A read that failed mid-flight escalated its disk; the a.failed checks
	// below then route that column through reconstruction.
	parityLost = parityLost || oldP == nil

	// Fold every extent's delta into the parity union buffer.
	if !parityLost {
		for i, ext := range exts {
			newD := a.chunk(data, ext)
			devIdx, _ := a.loc(ext.stripe, ext.pos)
			off := (ext.secOff - lo) * a.secSize
			old := oldD[i]
			if a.failed[devIdx] {
				// Lost column: rebuild its contribution from peers.
				old = sc.col(len(newD))
				if err := a.reconstructRangeInto(p, sc, stripe, devIdx, int64(ext.secOff), old); err != nil {
					return err
				}
			}
			delta := sc.col(len(newD))
			a.xor.XORTo(p, delta, old, newD)
			a.xor.XORInto(p, oldP[off:off+len(delta)], delta)
		}
	}

	wg := sim.NewGroup(a.eng)
	for _, ext := range exts {
		ext := ext
		devIdx, base := a.loc(stripe, ext.pos)
		if a.failed[devIdx] {
			continue
		}
		newD := a.chunk(data, ext)
		goAdopted(wg, p, "rmw-wd", func(q *sim.Proc) {
			a.devWrite(q, devIdx, base+int64(ext.secOff), newD)
		})
	}
	if !parityLost {
		goAdopted(wg, p, "rmw-wp", func(q *sim.Proc) {
			a.devWrite(q, pdev, pbase+int64(lo), oldP)
		})
	}
	wg.Wait(p)
	return a.errIfLost("write")
}

// writePartialStripe updates a stripe that the request only partially
// covers.  When most of the stripe is being rewritten, reconstruct-write
// wins; otherwise a single batched read-modify-write updates data and
// parity — "each small write requires four disk accesses: reads of the old
// data and parity blocks and writes of the new data and parity blocks".
func (a *Array) writePartialStripe(p *sim.Proc, stripe int64, exts []extent, data []byte) error {
	if a.reconstructWriteApplies(exts, stripe) {
		return a.writeReconstructStripe(p, stripe, exts, data)
	}
	return a.writeRMWBatched(p, stripe, exts, data)
}

// Reconstruct rebuilds failed device devIdx onto spare, stripe by stripe,
// then swaps the spare in and clears the failure.  It returns the number of
// stripes rebuilt.  At Level 6 the rebuild works double-degraded: each
// stripe solves through P and Q even while a second device is still down.
func (a *Array) Reconstruct(p *sim.Proc, devIdx int, spare Dev) (int64, error) {
	if err := a.errIfLost("reconstruct"); err != nil {
		return 0, err
	}
	if !a.failed[devIdx] {
		return 0, fmt.Errorf("raid: device %d is not failed", devIdx)
	}
	if spare.Sectors() < a.stripes*int64(a.unitSecs) || spare.SectorSize() != a.secSize {
		return 0, fmt.Errorf("raid: spare geometry mismatch")
	}
	if a.cfg.Level == Level0 {
		return 0, fmt.Errorf("raid: cannot reconstruct at %v", a.cfg.Level)
	}
	// Rebuild a window of stripes concurrently: the reads fan out over all
	// surviving disks, so pipelining stripes keeps every spindle busy
	// instead of paying per-stripe latency serially.
	const window = 4
	sem := sim.NewServer(a.eng, "rebuild-window", window)
	g := sim.NewGroup(a.eng)
	var firstErr error
	for s := int64(0); s < a.stripes; s++ {
		s := s
		sem.Acquire(p)
		g.Go("rebuild-stripe", func(q *sim.Proc) {
			defer sem.Release()
			end := q.Span("raid", "rebuild-stripe")
			defer end()
			sc := a.newScratch()
			defer sc.release()
			content := sc.unit()
			switch a.cfg.Level {
			case Level1:
				// The surviving member of the pair holds the data.
				peer := devIdx ^ 1
				if !a.devReadInto(q, peer, s*int64(a.unitSecs), content) {
					if firstErr == nil {
						firstErr = fmt.Errorf("raid: rebuild source device %d failed", peer)
					}
					return
				}
			case Level3, Level5:
				if err := a.reconstructRangeInto(q, sc, s, devIdx, 0, content); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			case Level6:
				if err := a.reconstruct6Into(q, sc, s, devIdx, 0, content); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			default:
				if firstErr == nil {
					firstErr = fmt.Errorf("raid: cannot reconstruct at %v", a.cfg.Level)
				}
				return
			}
			a.stats.DiskWrites++
			if err := spare.Write(q, s*int64(a.unitSecs), content); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("raid: rebuild write to spare: %w", err)
				}
				return
			}
			a.stats.RebuildStripes++
		})
	}
	g.Wait(p)
	if firstErr != nil {
		return 0, firstErr
	}
	a.devs[devIdx] = spare
	a.RepairDisk(devIdx)
	return a.stripes, nil
}

// Rebuild is a handle on a background hot rebuild started by ReplaceDisk.
type Rebuild struct {
	done    *sim.Event
	stripes int64
	err     error
}

// Done reports whether the rebuild has finished.
func (r *Rebuild) Done() bool { return r.done.Fired() }

// Wait blocks the calling proc until the rebuild finishes and returns the
// number of stripes rebuilt.
func (r *Rebuild) Wait(p *sim.Proc) (int64, error) {
	r.done.Wait(p)
	return r.stripes, r.err
}

// ReplaceDisk starts rebuilding failed device devIdx onto spare in the
// background and returns immediately with a handle.  The rebuild contends
// with foreground traffic for the surviving disks and whatever buses the
// spare shares with them, which is exactly the bandwidth interference the
// rebuild-under-load experiment measures.
func (a *Array) ReplaceDisk(devIdx int, spare Dev) (*Rebuild, error) {
	if devIdx < 0 || devIdx >= len(a.devs) {
		return nil, fmt.Errorf("raid: no device %d", devIdx)
	}
	if !a.failed[devIdx] {
		return nil, fmt.Errorf("raid: device %d is not failed", devIdx)
	}
	if spare.Sectors() < a.stripes*int64(a.unitSecs) || spare.SectorSize() != a.secSize {
		return nil, fmt.Errorf("raid: spare geometry mismatch")
	}
	if a.cfg.Level == Level0 {
		return nil, fmt.Errorf("raid: cannot reconstruct at %v", a.cfg.Level)
	}
	rb := &Rebuild{done: sim.NewEvent(a.eng)}
	a.eng.Spawn("hot-rebuild", func(p *sim.Proc) {
		end := p.Span("fault", "hot-rebuild")
		rb.stripes, rb.err = a.Reconstruct(p, devIdx, spare)
		end()
		rb.done.Signal()
	})
	return rb, nil
}

// CheckParity scans every stripe and verifies that parity equals the XOR of
// the data columns (and, at Level 6, that the Q column matches the
// Reed-Solomon sum); it returns the number of inconsistent stripes.  Only
// meaningful for levels 3, 5, and 6.
func (a *Array) CheckParity(p *sim.Proc) int64 {
	if a.cfg.Level != Level3 && a.cfg.Level != Level5 && a.cfg.Level != Level6 {
		return 0
	}
	sc := a.newScratch()
	defer sc.release()
	cols := make([][]byte, a.dataDisks())
	for pos := range cols {
		cols[pos] = sc.unit()
	}
	want, got := sc.unit(), sc.unit()
	// matches reports whether the unit at (dev, lba) reads back as want.
	matches := func(dev int, lba int64) bool {
		return bytepath.ReadInto(a.devs[dev], p, lba, got) == nil && bytes.Equal(want, got)
	}
	var bad int64
stripes:
	for s := int64(0); s < a.stripes; s++ {
		for pos := range cols {
			devIdx, base := a.loc(s, pos)
			if bytepath.ReadInto(a.devs[devIdx], p, base, cols[pos]) != nil {
				bad++
				continue stripes
			}
		}
		a.xor.XORTo(p, want, cols...)
		ok := matches(a.parityLoc(s))
		if ok && a.cfg.Level == Level6 {
			qParityInto(want, cols)
			ok = matches(a.qLoc(s))
		}
		if !ok {
			bad++
		}
	}
	return bad
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
	defer telemetry.StageSpan(p, telemetry.StageRAID).End()
	a.inflight++
	defer func() { a.inflight-- }()

	groups := make(map[int64][]extent)
	var order []int64
	for _, ext := range a.extents(lba, n) {
		if _, ok := groups[ext.stripe]; !ok {
			order = append(order, ext.stripe)
		}
		groups[ext.stripe] = append(groups[ext.stripe], ext)
	}
	g := sim.NewGroup(a.eng)
	var firstErr error
	for _, stripe := range order {
		stripe, exts := stripe, groups[stripe]
		goAdopted(g, p, "raid-stream-stripe", func(q *sim.Proc) {
			if err := a.streamStripe(q, stripe, exts, data); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	g.Wait(p)
	if firstErr != nil {
		return firstErr
	}
	a.stats.Writes++
	return nil
}

// streamStripe writes the extents and a parity column computed from them,
// with the data writes overlapping the parity computation.
func (a *Array) streamStripe(p *sim.Proc, stripe int64, exts []extent, data []byte) error {
	if a.fullStripe(exts) {
		if a.cfg.Level == Level6 {
			return a.writeFullStripe6(p, stripe, exts, data)
		}
		return a.writeFullStripe(p, stripe, exts, data)
	}
	a.stats.StreamingWrites++
	g := sim.NewGroup(a.eng)
	lo, hi := exts[0].secOff, exts[0].secOff+exts[0].secs
	for _, ext := range exts {
		ext := ext
		if ext.secOff < lo {
			lo = ext.secOff
		}
		if ext.secOff+ext.secs > hi {
			hi = ext.secOff + ext.secs
		}
		devIdx, base := a.loc(stripe, ext.pos)
		if a.failed[devIdx] {
			continue
		}
		chunk := a.chunk(data, ext)
		goAdopted(g, p, "stream-w", func(q *sim.Proc) {
			a.devWrite(q, devIdx, base+int64(ext.secOff), chunk)
		})
	}
	// Parity over the written columns' union range, in parallel with the
	// data writes.
	goAdopted(g, p, "stream-p", func(q *sim.Proc) {
		sc := a.newScratch()
		defer sc.release()
		span := (hi - lo) * a.secSize
		cols := make([][]byte, a.dataDisks())
		for _, ext := range exts {
			col := sc.col(span)
			clear(col)
			copy(col[(ext.secOff-lo)*a.secSize:], a.chunk(data, ext))
			cols[ext.pos] = col
		}
		present := cols[:0:0]
		for _, c := range cols {
			if c != nil {
				present = append(present, c)
			}
		}
		parity := sc.col(span)
		a.xor.XORTo(q, parity, present...)
		pdev, pbase := a.parityLoc(stripe)
		if !a.failed[pdev] {
			a.devWrite(q, pdev, pbase+int64(lo), parity)
		}
		if a.cfg.Level == Level6 {
			qpar := sc.col(span)
			qParityInto(qpar, cols)
			qdev, qbase := a.qLoc(stripe)
			if !a.failed[qdev] {
				a.devWrite(q, qdev, qbase+int64(lo), qpar)
			}
		}
	})
	g.Wait(p)
	return a.errIfLost("streaming write")
}
