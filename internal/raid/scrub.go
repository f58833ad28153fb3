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
// time rather than competing with demand traffic.  Only levels with check
// columns (3, 5, and 6) can be scrubbed.
func (a *Array) StartScrub(cfg ScrubConfig) (*Scrub, error) {
	if a.row.checks == 0 {
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

// scrubStripe verifies one stripe: every column is read, one after another in
// role order; columns that are missing — on failed devices, or latent read
// errors on live ones — are solved from the rest exactly as a degraded read
// would, and the latent ones rewritten in place, which remaps the bad sectors
// underneath; then every surviving check column is compared with its code
// over the data and rewritten if stale.  The stripe is given up when more
// than m columns are missing (nothing can solve it) or when failed devices
// alone consume all m check columns (nothing is left to verify — the rebuild,
// not the patrol, restores it).  It reads the devices directly (like
// CheckParity) rather than through the view's read: a latent sector the
// patrol finds is the patrol doing its job, not a demand-path device error,
// so it must not escalate the disk to failed or count toward DeviceErrors.
func (a *Array) scrubStripe(p *sim.Proc, s int64) (verified, repaired bool) {
	defer p.Span("scrub", "stripe")()
	sc := a.newScratch()
	defer sc.release()
	v := a.view(s, false)
	k, m := a.dataDisks(), a.row.checks
	unitBytes := a.unitSecs * a.secSize

	cols := make([][]byte, k+m)
	latent := make([]bool, k+m) // unreadable but on a live device: repairable in place
	failedCols, missing := 0, 0
	for role := range cols {
		if v.lost(role) {
			failedCols++
			missing++
			continue
		}
		a.stats.DiskReads++
		col := sc.unit()
		if err := bytepath.ReadInto(v.cols[role].on, p, v.base, col); err != nil {
			latent[role] = true
			missing++
			continue
		}
		cols[role] = col
	}
	if missing > m || failedCols >= m {
		return false, false
	}
	// The solve fills in data columns only, so what was read of the check
	// columns stays in cols for the comparison below.
	a.solve(p, sc, cols, unitBytes, -1, nil)

	verified = true
	rewrite := func(role int, content []byte) {
		ok := a.scrubRewrite(p, v.cols[role].on, v.base, content)
		verified = verified && ok
		repaired = repaired || ok
	}
	for pos := 0; pos < k; pos++ {
		if latent[pos] {
			rewrite(pos, cols[pos])
		}
	}
	want := sc.unit()
	for j := 0; j < m; j++ {
		if v.lost(k + j) {
			continue
		}
		a.encode(p, j, want, cols[:k])
		if latent[k+j] || !bytes.Equal(want, cols[k+j]) {
			// Unreadable, or does not cover the data: rewrite it.
			rewrite(k+j, want)
		}
	}
	return verified, repaired
}

// scrubRewrite writes a repaired column back under a repair span; it reports
// whether the write succeeded.
func (a *Array) scrubRewrite(p *sim.Proc, on Dev, lba int64, content []byte) bool {
	defer p.Span("scrub", "repair")()
	a.stats.DiskWrites++
	if err := on.Write(p, lba, content); err != nil {
		return false
	}
	a.stats.ScrubRepairs++
	return true
}
