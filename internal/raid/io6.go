package raid

import (
	"raidii/internal/bytepath"
	"raidii/internal/sim"
)

// Level 6 datapath: every stripe carries two parity columns — P (XOR, as
// at Level 5) and Q (Reed-Solomon over GF(256)) — so any two concurrent
// column losses solve as a linear system.  The four degraded-serve cases:
// one data column lost (XOR through P), data+P lost (divide through Q),
// data+Q lost (XOR through P), and two data columns lost (the 2x2 P+Q
// solve).  Three losses exceed the redundancy and latch ErrArrayFailed.

// stripeDevs6 returns the P device, Q device, and the device of every data
// column for a stripe.
func (a *Array) stripeDevs6(stripe int64) (pdev, qdev int, dataDev []int) {
	pdev, _ = a.parityLoc(stripe)
	qdev, _ = a.qLoc(stripe)
	dataDev = make([]int, a.dataDisks())
	for pos := range dataDev {
		dataDev[pos], _ = a.loc(stripe, pos)
	}
	return pdev, qdev, dataDev
}

// solveStripe6 reads every surviving column of a stripe over the sector
// range [secOff, secOff+secs) and solves for the missing data columns,
// returning the complete set of data column contents in columns drawn from
// sc.  More than two missing columns is unrecoverable and latches the
// array-failed state.
func (a *Array) solveStripe6(p *sim.Proc, sc *scratch, stripe int64, secOff int64, secs int) ([][]byte, error) {
	end := p.Span("raid", "pq-reconstruct")
	defer end()
	pdev, qdev, dataDev := a.stripeDevs6(stripe)
	base := stripe*int64(a.unitSecs) + secOff
	nd := a.dataDisks()
	n := secs * a.secSize

	dataCols := make([][]byte, nd)
	var pcol, qcol []byte
	g := sim.NewGroup(a.eng)
	for pos := 0; pos < nd; pos++ {
		pos := pos
		if a.failed[dataDev[pos]] {
			continue
		}
		col := sc.col(n)
		goAdopted(g, p, "pq-read", func(q *sim.Proc) {
			if a.devReadInto(q, dataDev[pos], base, col) {
				dataCols[pos] = col
			}
		})
	}
	if !a.failed[pdev] {
		col := sc.col(n)
		goAdopted(g, p, "pq-read-p", func(q *sim.Proc) {
			if a.devReadInto(q, pdev, base, col) {
				pcol = col
			}
		})
	}
	if !a.failed[qdev] {
		col := sc.col(n)
		goAdopted(g, p, "pq-read-q", func(q *sim.Proc) {
			if a.devReadInto(q, qdev, base, col) {
				qcol = col
			}
		})
	}
	g.Wait(p)

	var missing []int
	for pos := 0; pos < nd; pos++ {
		if dataCols[pos] == nil {
			missing = append(missing, pos)
		}
	}
	lostCols := len(missing)
	if pcol == nil {
		lostCols++
	}
	if qcol == nil {
		lostCols++
	}
	if lostCols > 2 {
		return nil, a.declareLost("reconstruct: more than two columns lost at level 6")
	}
	a.solveMissing6(p, sc, n, dataCols, pcol, qcol, missing)
	return dataCols, nil
}

// solveMissing6 fills in the one or two missing n-byte data columns of a
// stripe from the survivors and whichever of P and Q the solve needs (the
// caller has checked that no more than two columns are lost in all).  pcol
// and qcol are left untouched: the scrub verifies them afterwards.
func (a *Array) solveMissing6(p *sim.Proc, sc *scratch, n int, dataCols [][]byte, pcol, qcol []byte, missing []int) {
	switch len(missing) {
	case 1:
		x := missing[0]
		dx := sc.col(n)
		if pcol != nil {
			// XOR through P, exactly the single-parity path.
			srcs := [][]byte{pcol}
			for pos, c := range dataCols {
				if pos != x {
					srcs = append(srcs, c)
				}
			}
			a.xor.XORTo(p, dx, srcs...)
		} else {
			// P is gone too: divide the Q remainder by this column's
			// coefficient.  D_x = (Q ^ sum(g^i D_i, i != x)) / g^x.
			qParityInto(dx, dataCols)
			bytepath.XOR(dx, qcol)
			gfDivSlice(dx, gfPow(x))
		}
		dataCols[x] = dx
	case 2:
		// Two data columns lost: P gives D_x ^ D_y, Q gives
		// g^x D_x ^ g^y D_y; eliminate D_y and divide by (g^x ^ g^y).
		x, y := missing[0], missing[1]
		pxor := sc.col(n)
		copy(pxor, pcol)
		for _, c := range dataCols {
			if c != nil {
				a.xor.XORInto(p, pxor, c)
			}
		}
		dx := sc.col(n)
		qParityInto(dx, dataCols)
		bytepath.XOR(dx, qcol)
		// dx holds the Q remainder; D_x = (g^y pxor ^ dx) / denom.
		gy := gfPow(y)
		denom := gfPow(x) ^ gy
		gfDivSlice(dx, denom)
		gfMulSliceInto(dx, pxor, gfDiv(gy, denom))
		dy := sc.col(n)
		a.xor.XORTo(p, dy, pxor, dx)
		dataCols[x], dataCols[y] = dx, dy
	}
}

// reconstruct6Into rebuilds into dst the contents device wantDev holds in
// the len(dst)-byte range at secOff of a stripe — a data column, the P
// column, or the Q column — solving through whichever parity survives.
func (a *Array) reconstruct6Into(p *sim.Proc, sc *scratch, stripe int64, wantDev int, secOff int64, dst []byte) error {
	pdev, qdev, dataDev := a.stripeDevs6(stripe)
	dataCols, err := a.solveStripe6(p, sc, stripe, secOff, len(dst)/a.secSize)
	if err != nil {
		return err
	}
	switch wantDev {
	case pdev:
		a.xor.XORTo(p, dst, dataCols...)
		return nil
	case qdev:
		qParityInto(dst, dataCols)
		return nil
	}
	for pos, dev := range dataDev {
		if dev == wantDev {
			copy(dst, dataCols[pos])
			return nil
		}
	}
	return a.declareLost("reconstruct: device holds no column of this stripe")
}

// writeFullStripe6 computes P and Q from the new data alone and writes all
// columns in parallel, the Level 6 analogue of the full-stripe fast path.
func (a *Array) writeFullStripe6(p *sim.Proc, stripe int64, exts []extent, data []byte) error {
	end := p.Span("raid", "full-stripe-write")
	defer end()
	a.stats.FullStripeWrites++
	cols := make([][]byte, a.dataDisks())
	for _, ext := range exts {
		cols[ext.pos] = a.chunk(data, ext)
	}
	pdev, pbase := a.parityLoc(stripe)
	qdev, qbase := a.qLoc(stripe)
	sc := a.newScratch()
	defer sc.release()
	parity, qpar := sc.unit(), sc.unit()

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
	goAdopted(g, p, "wq", func(q *sim.Proc) {
		qParityInto(qpar, cols)
		if a.failed[qdev] {
			return
		}
		a.devWrite(q, qdev, qbase, qpar)
	})
	g.Wait(p)
	return a.errIfLost("write")
}

// writePartialStripe6 updates a partially covered Level 6 stripe: the
// healthy small-write path is a batched read-modify-write updating P and Q
// by delta; larger or degraded writes reconstruct the whole stripe.
func (a *Array) writePartialStripe6(p *sim.Proc, stripe int64, exts []extent, data []byte) error {
	if len(a.failed) == 0 && !a.reconstructWriteApplies(exts, stripe) {
		return a.writeRMW6(p, stripe, exts, data)
	}
	return a.writeReconstruct6(p, stripe, exts, data)
}

// writeRMW6 performs the healthy Level 6 read-modify-write: read old data
// per extent plus old P and Q over the union range, fold each extent's
// delta into P (XOR) and Q (scaled by the column coefficient), then write
// new data and both parities in parallel — six disk accesses against the
// single-parity path's four.
func (a *Array) writeRMW6(p *sim.Proc, stripe int64, exts []extent, data []byte) error {
	end := p.Span("raid", "rmw-write")
	defer end()
	a.stats.SmallWrites++
	pdev, pbase := a.parityLoc(stripe)
	qdev, qbase := a.qLoc(stripe)

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
	var oldP, oldQ []byte
	rg := sim.NewGroup(a.eng)
	for i, ext := range exts {
		i, ext := i, ext
		devIdx, base := a.loc(ext.stripe, ext.pos)
		old := sc.col(ext.secs * a.secSize)
		goAdopted(rg, p, "rmw-rd", func(q *sim.Proc) {
			if a.devReadInto(q, devIdx, base+int64(ext.secOff), old) {
				oldD[i] = old
			}
		})
	}
	bufP, bufQ := sc.col((hi-lo)*a.secSize), sc.col((hi-lo)*a.secSize)
	goAdopted(rg, p, "rmw-rp", func(q *sim.Proc) {
		if a.devReadInto(q, pdev, pbase+int64(lo), bufP) {
			oldP = bufP
		}
	})
	goAdopted(rg, p, "rmw-rq", func(q *sim.Proc) {
		if a.devReadInto(q, qdev, qbase+int64(lo), bufQ) {
			oldQ = bufQ
		}
	})
	rg.Wait(p)
	if oldP == nil || oldQ == nil {
		// A parity read failed mid-flight; fall back to the reconstructing
		// write, which routes around whatever just escalated.
		return a.writeReconstruct6(p, stripe, exts, data)
	}
	for i := range exts {
		if oldD[i] == nil {
			return a.writeReconstruct6(p, stripe, exts, data)
		}
	}

	for i, ext := range exts {
		newD := a.chunk(data, ext)
		off := (ext.secOff - lo) * a.secSize
		delta := sc.col(len(newD))
		a.xor.XORTo(p, delta, oldD[i], newD)
		a.xor.XORInto(p, oldP[off:off+len(delta)], delta)
		gfMulSliceInto(oldQ[off:off+len(delta)], delta, gfPow(ext.pos))
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
	if !a.failed[pdev] {
		goAdopted(wg, p, "rmw-wp", func(q *sim.Proc) {
			a.devWrite(q, pdev, pbase+int64(lo), oldP)
		})
	}
	if !a.failed[qdev] {
		goAdopted(wg, p, "rmw-wq", func(q *sim.Proc) {
			a.devWrite(q, qdev, qbase+int64(lo), oldQ)
		})
	}
	wg.Wait(p)
	return a.errIfLost("write")
}

// writeReconstruct6 handles a Level 6 partial-stripe write by full
// reconstruction: read every surviving column, solve for lost data columns
// through P and Q, overlay the new data, recompute both parities over the
// whole unit, and write the new ranges plus parity in parallel.  This is
// the reconstruct-write path, and the only write path once the stripe is
// degraded — the new data of a lost column lives on in P and Q.
func (a *Array) writeReconstruct6(p *sim.Proc, stripe int64, exts []extent, data []byte) error {
	end := p.Span("raid", "reconstruct-write")
	defer end()
	a.stats.ReconstructWrites++
	sc := a.newScratch()
	defer sc.release()
	cols, err := a.solveStripe6(p, sc, stripe, 0, a.unitSecs)
	if err != nil {
		return err
	}
	// Overlay the new data; the solved columns are this operation's own
	// scratch, so partial extents patch them in place.
	for _, ext := range exts {
		chunk := a.chunk(data, ext)
		if ext.secOff == 0 && ext.secs == a.unitSecs {
			cols[ext.pos] = chunk
			continue
		}
		copy(cols[ext.pos][ext.secOff*a.secSize:], chunk)
	}
	parity, qpar := sc.unit(), sc.unit()
	a.xor.XORTo(p, parity, cols...)
	qParityInto(qpar, cols)
	pdev, pbase := a.parityLoc(stripe)
	qdev, qbase := a.qLoc(stripe)

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
	if !a.failed[qdev] {
		goAdopted(wg, p, "rw-qparity", func(q *sim.Proc) {
			a.devWrite(q, qdev, qbase, qpar)
		})
	}
	wg.Wait(p)
	return a.errIfLost("write")
}
