package raid

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"raidii/internal/bitset"
	"raidii/internal/bytepath"
	"raidii/internal/sim"
)

// Rebuild and writes.  A rebuild walks a set of stripes in ascending order, a
// word at a time: the array's written set onto a spare (a stripe no write has
// reached holds zeros everywhere, as a fresh spare does), or the device's
// missed set onto the device itself (Resync).  The spare holds a stripe's
// current column once the walk has passed it and it is not in flight
// (rebuild.done).  The rebuild holds a stripe's writer lock from before its
// survivor reads until its column lands, and a write adds its stripe to the
// written set and takes its view under that lock with no yield between.
// Until the stripe is done its column is lost to the write, and the rebuild
// solves the write's data out of the check columns; after, the column is
// live on the spare, and the device, which the spare may never replace,
// misses it.  Reads take no lock and stay on the degraded path until the
// swap-in.  A read stage and a spare stage joined by a queue run the rebuild
// (rebuildStripe, writeRun).

// rebuildWindow is how many stripes a rebuild reads at once, and how many
// solved columns it holds for the spare.
const rebuildWindow = 4

// Share makes the array draw its column scratch from other's free list and
// read its rebuilds' stripes in the window reads, as one array would: arrays
// that serve one client — a cluster store's files — then keep one free
// list, and their rebuilds, run together, keep one window of stripes
// reading between them.
func (a *Array) Share(other *Array, reads *sim.Server) {
	a.colFree, a.reads = other.colFree, reads
}

// rebuild is the state of one device's rebuild in flight.
type rebuild struct {
	spare   Dev
	walk    *bitset.Set[int64] // the stripes to rebuild: the array's written set, or for a resync the device's missed set
	next    int64              // the walk has passed every stripe below next
	pending bitset.Set[int64]  // stripes the walk has taken whose column has not landed
	landed  int64              // stripes whose column has landed on the spare
	err     error              // first failure: a stripe that would not solve, or any write that failed on the spare; a failed rebuild never swaps its spare in

	// The spare stage.
	slots   *sim.Server // one per solved column held, from entering the queue until its run lands
	queue   []solved    // solved columns waiting for the spare, each stripe still locked
	writing bool        // some process is the writer
	run     []byte      // where a run of several columns is gathered for its one write
}

// solved is one stripe's rebuilt column on its way to the spare.
type solved struct {
	stripe int64
	col    []byte // from the array's column free list
}

// done reports whether the spare holds stripe s's current column: the walk
// has passed s, and s is not in flight.
func (rb *rebuild) done(s int64) bool { return s < rb.next && !rb.pending.Has(s) }

func (rb *rebuild) fail(err error) {
	if rb.err == nil {
		rb.err = err
	}
}

// CanReplace reports why device devIdx cannot be rebuilt now, or nil: it must
// be a failed device with no rebuild in flight, at a level that can
// reconstruct.  A caller that provisions the spare asks before it does.
func (a *Array) CanReplace(devIdx int) error { return a.canRebuild(devIdx, true) }

// canRebuild is CanReplace for a device that must be failed (onto a spare)
// or up (a resync onto itself).
func (a *Array) canRebuild(devIdx int, failed bool) error {
	switch {
	case devIdx < 0 || devIdx >= len(a.devs):
		return fmt.Errorf("raid: no device %d", devIdx)
	case failed && !a.failed.Has(devIdx):
		return fmt.Errorf("raid: device %d is not failed", devIdx)
	case !failed && a.failed.Has(devIdx):
		return fmt.Errorf("raid: device %d is failed", devIdx)
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
// skipped; after a failure, the number that landed on the spare.  The
// rebuild works however degraded the level allows: at Level 6 each stripe
// solves through P and Q even while a second device is still down.  Writes may land while it runs (see the protocol above).
func (a *Array) Reconstruct(p *sim.Proc, devIdx int, spare Dev) (int64, error) {
	rb, err := a.begin(devIdx, spare)
	if err != nil {
		return 0, err
	}
	return a.reconstruct(p, devIdx, rb)
}

// begin validates a rebuild request and registers the rebuild, so that from
// this moment a second request for the same device is refused.  Onto a spare
// (CanReplace, and a spare of the array's geometry) it walks the written
// stripes; a nil spare is a resync, which walks the device's missed set onto
// the device itself.
func (a *Array) begin(devIdx int, spare Dev) (*rebuild, error) {
	if err := a.canRebuild(devIdx, spare != nil); err != nil {
		return nil, err
	}
	rb := &rebuild{spare: spare, walk: &a.written}
	if spare == nil {
		rb.spare, rb.walk = a.devs[devIdx], &a.missed[devIdx]
	} else if spare.Sectors() < a.stripes*int64(a.unitSecs) || spare.SectorSize() != a.secSize {
		return nil, fmt.Errorf("raid: spare geometry mismatch")
	}
	a.rebuilds[devIdx] = rb
	return rb, nil
}

// Resync rebuilds the stripes in device devIdx's missed set onto the device
// itself, once ReturnDisk has brought it back, as Reconstruct rebuilds onto a
// spare.  Each stripe leaves the set as its run lands, so after a failure the
// set holds exactly what is left to repair; it returns how many stripes it
// repaired, on a failure too.
func (a *Array) Resync(p *sim.Proc, devIdx int) (int64, error) { return a.Reconstruct(p, devIdx, nil) }

// onDevice reports whether rb's spare is device devIdx itself: a resync's
// always is, as it walks the device's missed set, and another rebuild's is
// once it has ended and swapped its spare in.
func (a *Array) onDevice(rb *rebuild, devIdx int) bool {
	return rb.walk == &a.missed[devIdx] || a.rebuilds[devIdx] != rb && rb.err == nil
}

// reconstruct runs the registered rebuild rb of device devIdx.
func (a *Array) reconstruct(p *sim.Proc, devIdx int, rb *rebuild) (int64, error) {
	defer delete(a.rebuilds, devIdx)
	// Read a window of stripes concurrently: the reads fan out over all
	// surviving disks, so pipelining stripes keeps every spindle busy
	// instead of paying per-stripe latency serially.  The same width bounds
	// the solved columns waiting for the spare.
	reads := a.reads
	if reads == nil {
		reads = sim.NewServer(a.eng, "rebuild-read", rebuildWindow)
	}
	rb.slots = sim.NewServer(a.eng, "rebuild-spare", rebuildWindow)
	g := sim.NewGroup(a.eng)
	for s := range rb.walk.All() {
		rb.pending.Add(s)
		rb.next = s + 1
		reads.Acquire(p)
		if rb.err != nil { // the rebuild has failed: read no more survivors
			reads.Release()
			break
		}
		g.Go("rebuild-stripe", func(q *sim.Proc) error {
			a.rebuildStripe(q, rb, reads, devIdx, s)
			return nil
		})
	}
	if rb.err == nil { // the walk went to the end
		rb.next = a.stripes
	}
	g.Wait(p) //lint:allow errdrop a stripe's failure fails the rebuild, in rb.err
	// The swap-in: the spare holds every column, its missed ones included.
	if rb.err == nil && !a.onDevice(rb, devIdx) {
		a.devs[devIdx] = rb.spare
		a.failed.Remove(devIdx)
		a.missed[devIdx] = bitset.Set[int64]{}
	}
	return rb.landed, rb.err
}

// rebuildStripe is stripe s's read stage, run holding one of reads' slots:
// it locks the stripe, produces device devIdx's column and hands the column
// and the lock to the spare stage.  The process that queues a column while
// no writer is at work becomes the writer until the queue is empty.
func (a *Array) rebuildStripe(p *sim.Proc, rb *rebuild, reads *sim.Server, devIdx int, s int64) {
	lk := a.lock(s)
	lk.Acquire(p)
	if !rb.walk.Has(s) {
		// A whole-stripe write brought a resync's column current while the
		// stripe waited for its lock.
		rb.pending.Remove(s)
		lk.Release()
		reads.Release()
		return
	}
	col := a.colFree.Get(a.unitSecs * a.secSize)
	if err := a.solveColumn(p, devIdx, s, col); err != nil {
		rb.fail(err)
		a.colFree.Put(col)
		lk.Release()
		reads.Release()
		return
	}
	rb.slots.Acquire(p)
	reads.Release()
	rb.queue = append(rb.queue, solved{s, col})
	if rb.writing {
		return
	}
	rb.writing = true
	for len(rb.queue) > 0 {
		// Let every column solved by now join the queue first: those
		// solved at this instant, and those whose places the last run freed.
		p.Wait(0)
		a.writeRun(p, rb, devIdx, rb.takeRun())
	}
	rb.writing = false
}

// solveColumn reads device devIdx's column of stripe s into col: the
// mirror holds it at Level 1, the solve produces it everywhere else.  A lost
// stripe fails, before any read or once a read loses it.
func (a *Array) solveColumn(p *sim.Proc, devIdx int, s int64, col []byte) error {
	defer p.Span("raid", "rebuild-stripe")()
	v := a.view(s, false)
	if err := v.covered(); err != nil {
		return err
	}
	if a.row.mirrored {
		v.read(p, devIdx^1, 0, col) // live, as devIdx's column is out; a failed read loses it
		return v.covered()
	}
	sc := a.newScratch()
	defer sc.release()
	_, err := v.readSolve(p, sc, 0, len(col), a.Role(s, devIdx), col)
	return err
}

// takeRun removes from the queue the longest run of consecutive stripes that
// starts at the lowest one queued, in stripe order.
func (rb *rebuild) takeRun() []solved {
	q := rb.queue
	slices.SortFunc(q, func(x, y solved) int { return cmp.Compare(x.stripe, y.stripe) })
	n := 1
	for n < len(q) && q[n].stripe == q[0].stripe+int64(n) {
		n++
	}
	run := slices.Clone(q[:n])
	rb.queue = append(q[:0], q[n:]...)
	return run
}

// writeRun writes a run of consecutive stripes' columns to device devIdx's
// spare in one command, unless the rebuild has already failed, then releases
// each stripe: done when its column landed, and out of the device's missed
// set too when the spare is the device itself; unlocked either way.
func (a *Array) writeRun(p *sim.Proc, rb *rebuild, devIdx int, run []solved) {
	landed := false
	if rb.err == nil {
		end := p.Span("raid", "rebuild-run")
		data := run[0].col
		if len(run) > 1 {
			rb.run = rb.run[:0]
			for _, c := range run {
				rb.run = append(rb.run, c.col...)
			}
			data = rb.run
		}
		a.stats.DiskWrites++
		if err := rb.spare.Write(p, a.unitLBA(run[0].stripe), data); err != nil {
			rb.fail(fmt.Errorf("raid: rebuild write to spare: %w", err))
		} else {
			landed = true
		}
		end()
	}
	for _, c := range run {
		if landed {
			rb.pending.Remove(c.stripe)
			rb.landed++
			if a.onDevice(rb, devIdx) {
				rb.walk.Remove(c.stripe)
			}
			a.stats.RebuildStripes++
		}
		a.colFree.Put(c.col)
		a.lock(c.stripe).Release()
		rb.slots.Release()
	}
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
