package raid

import (
	"bytes"
	"cmp"
	"fmt"

	"raidii/internal/bytepath"
	"raidii/internal/sim"
)

// Rebuild and writes.  A rebuild and a write to the same stripe serialize on
// the stripe's writer lock.  Rebuilding a stripe holds the lock across its
// survivor reads and the spare write, then marks the stripe done; a write
// decides which columns are lost after it holds the lock (stripeView), so it
// either runs wholly before the stripe is rebuilt — a degraded write, whose
// new data the rebuild then solves out of the check columns — or wholly
// after, when it treats the rebuilt column as live on the spare.  Either way
// the spare holds the current column at swap-in.  Reads take no lock and stay
// on the degraded path until the swap-in, and an uncontended lock schedules
// no event, so a rebuild under read-only load keeps its timing.
//
// A stripe no write has reached holds zeros on every device, and so does a
// spare where it was never written, so the rebuild marks such a stripe done
// without any I/O.  Every write sets the stripe's written flag before it
// takes its view, with no yield in between: a write that reaches the stripe
// before the rebuild loop does is then rebuilt like any other, and one that
// arrives after the loop has passed sees the column live on the spare.

// rebuild is the state of one device's rebuild in flight.
type rebuild struct {
	spare Dev
	done  []bool // per stripe: the spare holds this stripe's column
	err   error  // first foreground write that failed on the spare; a failed rebuild never swaps its spare in
}

func (rb *rebuild) fail(err error) {
	if rb.err == nil {
		rb.err = err
	}
}

// CanReplace reports why device devIdx cannot be rebuilt now, or nil: it must
// be a failed device with no rebuild in flight, at a level that can
// reconstruct.  A caller that provisions the spare asks before it does.
func (a *Array) CanReplace(devIdx int) error {
	switch {
	case devIdx < 0 || devIdx >= len(a.devs):
		return fmt.Errorf("raid: no device %d", devIdx)
	case !a.failed[devIdx]:
		return fmt.Errorf("raid: device %d is not failed", devIdx)
	case a.rebuilds[devIdx] != nil:
		return fmt.Errorf("raid: device %d is already being rebuilt", devIdx)
	case !a.redundant():
		return fmt.Errorf("raid: cannot reconstruct at %v", a.cfg.Level)
	}
	return nil
}

// Reconstruct rebuilds failed device devIdx onto spare, stripe by stripe,
// then swaps the spare in and clears the failure.  It returns the number of
// stripes reconstructed, which leaves out the never-written stripes it
// skipped.  The rebuild works however degraded the level allows: at
// Level 6 each stripe solves through P and Q even while a second device is
// still down.  Writes may land while it runs (see the protocol above).
func (a *Array) Reconstruct(p *sim.Proc, devIdx int, spare Dev) (int64, error) {
	rb, err := a.begin(devIdx, spare)
	if err != nil {
		return 0, err
	}
	return a.reconstruct(p, devIdx, rb)
}

// begin validates a rebuild request — CanReplace, and a spare that matches
// the array's geometry — and registers the rebuild, so that from this moment
// a second request for the same device is refused.
func (a *Array) begin(devIdx int, spare Dev) (*rebuild, error) {
	if err := a.CanReplace(devIdx); err != nil {
		return nil, err
	}
	if spare.Sectors() < a.stripes*int64(a.unitSecs) || spare.SectorSize() != a.secSize {
		return nil, fmt.Errorf("raid: spare geometry mismatch")
	}
	rb := &rebuild{spare: spare, done: make([]bool, a.stripes)}
	a.rebuilds[devIdx] = rb
	return rb, nil
}

// reconstruct runs the registered rebuild rb of device devIdx.
func (a *Array) reconstruct(p *sim.Proc, devIdx int, rb *rebuild) (int64, error) {
	defer delete(a.rebuilds, devIdx)
	if err := a.errIfLost("reconstruct"); err != nil {
		return 0, err
	}
	// Rebuild a window of stripes concurrently: the reads fan out over all
	// surviving disks, so pipelining stripes keeps every spindle busy
	// instead of paying per-stripe latency serially.
	const window = 4
	sem := sim.NewServer(a.eng, "rebuild-window", window)
	g := sim.NewGroup(a.eng)
	var rebuilt int64
	for s := int64(0); s < a.stripes; s++ {
		if !a.written[s] {
			rb.done[s] = true
			continue
		}
		sem.Acquire(p)
		rebuilt++
		g.Go("rebuild-stripe", func(q *sim.Proc) error {
			defer sem.Release()
			return a.rebuildStripe(q, rb, devIdx, s)
		})
	}
	// A stripe that failed to rebuild, or a foreground write that failed on
	// the spare meanwhile.
	if err := cmp.Or(g.Wait(p), rb.err); err != nil {
		return 0, err
	}
	a.devs[devIdx] = rb.spare
	a.RepairDisk(devIdx)
	return rebuilt, nil
}

// rebuildStripe rebuilds device devIdx's column of stripe s onto the spare,
// under the stripe's writer lock: the surviving mirror member holds the
// contents at Level 1, the solve produces them everywhere else.
func (a *Array) rebuildStripe(p *sim.Proc, rb *rebuild, devIdx int, s int64) error {
	end := p.Span("raid", "rebuild-stripe")
	defer end()
	lk := a.lock(s)
	lk.Acquire(p)
	defer lk.Release()
	sc := a.newScratch()
	defer sc.release()
	content := sc.unit()
	v := a.view(s, false)
	if a.row.mirrored {
		if peer := devIdx ^ 1; v.lost(peer) || !v.read(p, peer, 0, content) {
			return fmt.Errorf("raid: rebuild source device %d failed", peer)
		}
	} else if _, err := v.readSolve(p, sc, 0, len(content), a.roleOf(s, devIdx), content); err != nil {
		return err
	}
	a.stats.DiskWrites++
	if err := rb.spare.Write(p, v.base, content); err != nil {
		return fmt.Errorf("raid: rebuild write to spare: %w", err)
	}
	rb.done[s] = true
	a.stats.RebuildStripes++
	return nil
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
// number of stripes reconstructed, as Reconstruct counts them.
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
	reb, err := a.begin(devIdx, spare)
	if err != nil {
		return nil, err
	}
	rb := &Rebuild{done: sim.NewEvent(a.eng)}
	a.eng.Spawn("hot-rebuild", func(p *sim.Proc) {
		end := p.Span("fault", "hot-rebuild")
		rb.stripes, rb.err = a.reconstruct(p, devIdx, reb)
		end()
		rb.done.Signal()
	})
	return rb, nil
}

// CheckParity scans every stripe and verifies that each check column equals
// its code over the data columns (P the XOR, Q the Reed-Solomon sum); it
// returns the number of inconsistent stripes.  Levels without check columns
// have nothing to verify.
func (a *Array) CheckParity(p *sim.Proc) int64 {
	if a.row.checks == 0 {
		return 0
	}
	k := a.dataDisks()
	sc := a.newScratch()
	defer sc.release()
	cols := make([][]byte, k)
	for pos := range cols {
		cols[pos] = sc.unit()
	}
	want, got := sc.unit(), sc.unit()
	// readRole reads the unit a role holds in stripe s into dst.
	readRole := func(s int64, role int, dst []byte) bool {
		return bytepath.ReadInto(a.devs[a.colDev(s, role)], p, a.unitLBA(s), dst) == nil
	}
	var bad int64
stripes:
	for s := int64(0); s < a.stripes; s++ {
		for pos := range cols {
			if !readRole(s, pos, cols[pos]) {
				bad++
				continue stripes
			}
		}
		for j := 0; j < a.row.checks; j++ {
			a.encode(p, j, want, cols)
			if !readRole(s, k+j, got) || !bytes.Equal(want, got) {
				bad++
				continue stripes
			}
		}
	}
	return bad
}
