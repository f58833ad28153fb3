package raid

import (
	"bytes"
	"fmt"
	"time"

	"raidii/internal/bytepath"
	"raidii/internal/sim"
)

// Background parity scrub: a low-priority patrol that sweeps the array's
// stripes during idle time, verifies parity against the data columns, and
// repairs what it finds — latent sector errors are reconstructed from the
// surviving columns and rewritten, stale parity is recomputed.  Scrubbing
// converts latent errors that would otherwise surface during a demand read
// (or, fatally, during a rebuild) into repairs that cost only idle disk
// time.

// ScrubConfig parameterizes one patrol pass.
type ScrubConfig struct {
	// Interval is the pause between stripes and the poll period while
	// yielding to foreground traffic.  Zero selects a default of 500µs.
	Interval time.Duration
	// MaxStripes bounds the pass; zero or negative scrubs the whole array.
	MaxStripes int64
}

const defaultScrubInterval = 500 * time.Microsecond

// Scrub is a handle on a background patrol started by StartScrub.
type Scrub struct {
	done    *sim.Event
	stripes uint64
	repairs uint64
}

// Done reports whether the patrol pass has finished.
func (s *Scrub) Done() bool { return s.done.Fired() }

// Wait blocks the calling proc until the pass finishes and returns the
// stripes verified and the repairs made.
func (s *Scrub) Wait(p *sim.Proc) (stripes, repairs uint64) {
	s.done.Wait(p)
	return s.stripes, s.repairs
}

// StartScrub launches one background patrol pass over the array and
// returns immediately with a handle.  The patrol is low priority: it holds
// off whenever foreground requests are in flight, so it consumes idle disk
// time rather than competing with demand traffic.  Only parity levels (3,
// 5, and 6) can be scrubbed.
func (a *Array) StartScrub(cfg ScrubConfig) (*Scrub, error) {
	if a.cfg.Level != Level3 && a.cfg.Level != Level5 && a.cfg.Level != Level6 {
		return nil, fmt.Errorf("raid: parity scrub requires level 3, 5, or 6, not level %d", int(a.cfg.Level))
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = defaultScrubInterval
	}
	limit := cfg.MaxStripes
	if limit <= 0 || limit > a.stripes {
		limit = a.stripes
	}
	sc := &Scrub{done: sim.NewEvent(a.eng)}
	a.eng.Spawn("parity-scrub", func(p *sim.Proc) {
		end := p.Span("scrub", "patrol")
		for s := int64(0); s < limit; s++ {
			for a.inflight > 0 {
				p.Wait(interval)
			}
			p.Wait(interval)
			verified, repaired := a.scrubStripe(p, s)
			if verified {
				sc.stripes++
				a.stats.ScrubbedStripes++
			}
			if repaired {
				sc.repairs++
			}
		}
		end()
		sc.done.Signal()
	})
	return sc, nil
}

// scrubStripe verifies one stripe and repairs at most one bad column.  It
// reads the devices directly (like CheckParity) rather than through
// devRead: a latent sector the patrol finds is the patrol doing its job,
// not a demand-path device error, so it must not escalate the disk to
// failed or count toward DeviceErrors.
func (a *Array) scrubStripe(p *sim.Proc, s int64) (verified, repaired bool) {
	end := p.Span("scrub", "stripe")
	defer end()
	if a.cfg.Level == Level6 {
		return a.scrubStripe6(p, s)
	}
	sc := a.newScratch()
	defer sc.release()
	nd := a.dataDisks()
	// Columns 0..nd-1 are data, column nd is parity.
	cols := make([][]byte, nd+1)
	devIdxs := make([]int, nd+1)
	lbas := make([]int64, nd+1)
	for pos := 0; pos < nd; pos++ {
		devIdxs[pos], lbas[pos] = a.loc(s, pos)
	}
	devIdxs[nd], lbas[nd] = a.parityLoc(s)

	bad := -1
	for i, devIdx := range devIdxs {
		if a.failed[devIdx] {
			// Degraded stripe: the rebuild, not the patrol, restores it.
			return false, false
		}
		a.stats.DiskReads++
		cols[i] = sc.unit()
		if err := bytepath.ReadInto(a.devs[devIdx], p, lbas[i], cols[i]); err != nil {
			if bad >= 0 {
				// Two unreadable columns: beyond single-parity repair.
				return false, false
			}
			bad = i
		}
	}

	want := sc.unit()
	if bad >= 0 {
		// One unreadable column: reconstruct it from the other nd columns
		// (data plus parity) and rewrite it, which remaps the latent
		// sectors underneath.
		others := make([][]byte, 0, nd)
		for i, c := range cols {
			if i != bad {
				others = append(others, c)
			}
		}
		a.xor.XORTo(p, want, others...)
		return a.scrubRewrite(p, devIdxs[bad], lbas[bad], want)
	}

	a.xor.XORTo(p, want, cols[:nd]...)
	if !bytes.Equal(want, cols[nd]) {
		// Parity does not cover the data: rewrite it.
		return a.scrubRewrite(p, devIdxs[nd], lbas[nd], want)
	}
	return true, false
}

// scrubStripe6 verifies one Level 6 stripe.  With up to two columns
// missing (failed devices or latent read errors) the P+Q solve recovers
// their contents; latent columns on live devices are rewritten in place.
// A stripe with both redundancy columns consumed by failed devices has
// nothing left to verify — the double-degraded rebuild, not the patrol,
// restores it.
func (a *Array) scrubStripe6(p *sim.Proc, s int64) (verified, repaired bool) {
	sc := a.newScratch()
	defer sc.release()
	pdev, qdev, dataDev := a.stripeDevs6(s)
	base := s * int64(a.unitSecs)
	nd := a.dataDisks()
	unitBytes := a.unitSecs * a.secSize

	var failedCols int
	readCol := func(dev int) ([]byte, bool) {
		if a.failed[dev] {
			failedCols++
			return nil, false
		}
		a.stats.DiskReads++
		col := sc.unit()
		if err := bytepath.ReadInto(a.devs[dev], p, base, col); err != nil {
			return nil, true // latent: on a live device, repairable in place
		}
		return col, false
	}

	dataCols := make([][]byte, nd)
	latent := make(map[int]bool) // device -> unreadable but live
	var missing []int
	for pos := 0; pos < nd; pos++ {
		data, lat := readCol(dataDev[pos])
		if data == nil {
			missing = append(missing, pos)
			if lat {
				latent[dataDev[pos]] = true
			}
			continue
		}
		dataCols[pos] = data
	}
	pcol, pLat := readCol(pdev)
	if pcol == nil && pLat {
		latent[pdev] = true
	}
	qcol, qLat := readCol(qdev)
	if qcol == nil && qLat {
		latent[qdev] = true
	}
	totalMissing := len(missing)
	if pcol == nil {
		totalMissing++
	}
	if qcol == nil {
		totalMissing++
	}
	if totalMissing > 2 || failedCols >= 2 {
		return false, false
	}

	// Solve the missing data columns through whatever parity survives —
	// the same cases the degraded read path serves.
	a.solveMissing6(p, sc, unitBytes, dataCols, pcol, qcol, missing)

	// rewrite puts a column's solved or recomputed contents back in place,
	// which remaps any bad sectors underneath.
	ok := true
	rewrite := func(dev int, content []byte) {
		v, r := a.scrubRewrite(p, dev, base, content)
		ok = ok && v
		repaired = repaired || r
	}
	for _, pos := range missing {
		if latent[dataDev[pos]] {
			rewrite(dataDev[pos], dataCols[pos])
		}
	}
	wantP, wantQ := sc.unit(), sc.unit()
	a.xor.XORTo(p, wantP, dataCols...)
	qParityInto(wantQ, dataCols)
	if pcol == nil && latent[pdev] {
		rewrite(pdev, wantP)
	}
	if qcol == nil && latent[qdev] {
		rewrite(qdev, wantQ)
	}
	// Verify whatever parity survives against the (solved) data; stale
	// parity is recomputed and rewritten.
	if pcol != nil && !bytes.Equal(wantP, pcol) {
		rewrite(pdev, wantP)
	}
	if qcol != nil && !bytes.Equal(wantQ, qcol) {
		rewrite(qdev, wantQ)
	}
	return ok, repaired
}

// scrubRewrite writes a repaired column back under a repair span.
func (a *Array) scrubRewrite(p *sim.Proc, devIdx int, lba int64, content []byte) (verified, repaired bool) {
	end := p.Span("scrub", "repair")
	defer end()
	a.stats.DiskWrites++
	if err := a.devs[devIdx].Write(p, lba, content); err != nil {
		return false, false
	}
	a.stats.ScrubRepairs++
	return true, true
}
