package fault

import (
	"time"

	"raidii/internal/sim"
)

// Latent is a device's unreadable sector runs: the one list the simulated
// drive and the in-memory test device both keep.  A run [lo, hi) is armed
// once the device has serviced minOps commands (0 = at once); writing any
// of its sectors remaps them, as real drives do.
type Latent struct{ runs []latentRun }

type latentRun struct {
	lo, hi int64
	minOps uint64
}

// Add marks sectors [lba, lba+n) unreadable from the device's minOps-th
// command on.
func (l *Latent) Add(lba int64, n int, minOps uint64) {
	l.runs = append(l.runs, latentRun{lo: lba, hi: lba + int64(n), minOps: minOps})
}

// First returns the lowest sector of [lba, lba+n) that a run armed by the
// device's ops commands makes unreadable, if any.
func (l *Latent) First(lba int64, n int, ops uint64) (int64, bool) {
	end := lba + int64(n)
	best := end
	for _, r := range l.runs {
		if r.minOps <= ops && r.lo < end && r.hi > lba {
			best = min(best, max(r.lo, lba))
		}
	}
	return best, best < end
}

// Clear remaps sectors [lba, lba+n): a run the range covers goes, one it
// overlaps is trimmed, and one it falls strictly inside splits in two.  The
// kept runs go to a new list, so a split never overwrites a run the loop
// has yet to visit.
func (l *Latent) Clear(lba int64, n int) {
	if len(l.runs) == 0 {
		return
	}
	end := lba + int64(n)
	var keep []latentRun
	for _, r := range l.runs {
		if r.hi <= lba || r.lo >= end {
			keep = append(keep, r)
			continue
		}
		if r.lo < lba {
			keep = append(keep, latentRun{lo: r.lo, hi: lba, minOps: r.minOps})
		}
		if r.hi > end {
			keep = append(keep, latentRun{lo: end, hi: r.hi, minOps: r.minOps})
		}
	}
	l.runs = keep
}

// Port is the fault state of one network party — the Ultranet ring, a HIPPI
// endpoint, an Ethernet segment — which scripted events set and transfers
// read; a disk drive holds one for its stalls alone.  Every change comes
// from an event inside the simulation, so the packet counter evolves
// deterministically.
type Port struct {
	Down      bool     // transfers touching the port fail with ErrLinkDown
	LossEvery int      // drop every LossEvery-th packet; 0 = none
	stallEnd  sim.Time // the port answers nothing before this time (StallUntil)
	pkts      uint64   // packets carried while loss is armed
}

// Lose advances the port's packet counter and reports whether this packet
// is the one the loss period drops.
func (pt *Port) Lose() bool {
	if pt.LossEvery <= 0 {
		return false
	}
	pt.pkts++
	return pt.pkts%uint64(pt.LossEvery) == 0
}

// StallUntil hangs the port until t.  A stall that ends earlier than the
// one in force changes nothing, so the later of overlapping stalls wins.
func (pt *Port) StallUntil(t sim.Time) { pt.stallEnd = max(pt.stallEnd, t) }

// Stall reports how much of the port's stall is still ahead at now.
func (pt *Port) Stall(now sim.Time) time.Duration {
	return max(pt.stallEnd.Sub(now), 0)
}
