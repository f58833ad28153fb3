package disk

import (
	"fmt"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

// This file holds the drive's fault machinery.  Faults are armed by the
// fault plan (or directly by tests) and surface as errors from Read and
// Write; the drive itself never retries — recovery policy lives in the SCSI
// controller and the RAID layer above it.

// mediumRetryRevs is how many platter revolutions the drive's firmware
// spends re-reading a bad sector before reporting an unrecoverable medium
// error (drives of the era retried on the order of a few revolutions).
const mediumRetryRevs = 2

// faultState is the drive's armed-fault bookkeeping.
type faultState struct {
	failed       bool
	failAfterOps uint64 // fail once ops reaches this count; 0 = disarmed
	ops          uint64 // commands serviced (admission-counted)
	latent       fault.Latent
}

// Fail kills the drive immediately: every subsequent command returns
// fault.ErrDiskFailed.
func (d *Disk) Fail() { d.flt.failed = true }

// FailAfterOps arms a whole-disk failure that fires when the drive has
// serviced n commands (reads + writes) in total.
func (d *Disk) FailAfterOps(n uint64) { d.flt.failAfterOps = n }

// AddLatentError marks sectors [lba, lba+n) unreadable: reads covering any
// of them position, stream up to the bad sector, then report
// fault.ErrMedium.  Writing over a bad sector remaps it and clears the
// error, as real drives do.
func (d *Disk) AddLatentError(lba int64, n int) { d.AddLatentErrorAfterOps(0, lba, n) }

// AddLatentErrorAfterOps arms the bad range once the drive has serviced
// minOps commands.
func (d *Disk) AddLatentErrorAfterOps(minOps uint64, lba int64, n int) {
	d.checkRange(lba, n)
	d.flt.latent.Add(lba, n, minOps)
}

// admit counts a command against the op-triggered faults and reports
// whether the drive is (now) dead.  Called on every Read/Write before any
// time is charged.
func (d *Disk) admit(p *sim.Proc) error {
	d.flt.ops++
	if d.flt.failAfterOps > 0 && d.flt.ops >= d.flt.failAfterOps {
		d.flt.failed = true
	}
	if d.flt.failed {
		// Dead electronics answer selection with an error status almost
		// immediately; only the command overhead is charged.
		p.Wait(d.spec.CmdOverhead)
		return fmt.Errorf("disk %s: %w", d.spec.Name, fault.ErrDiskFailed)
	}
	return nil
}

// mediumError charges the deterministic time of a failed read — position,
// stream up to the bad sector, then the firmware's re-read revolutions —
// and returns the wrapped medium error.
func (d *Disk) mediumError(p *sim.Proc, lba, bad int64) error {
	d.position(p, lba, false)
	if bad > lba {
		mt := d.mediaTime(lba, int(bad-lba))
		d.stats.MediaTime += mt
		p.Wait(mt)
	}
	endRec := p.Span("disk", "media-error")
	p.Wait(mediumRetryRevs * d.spec.Revolution())
	endRec()
	d.curCyl = d.cylOf(bad)
	d.seqNext = -1 // the interrupted run invalidates read-ahead
	return fmt.Errorf("disk %s: sector %d: %w", d.spec.Name, bad, fault.ErrMedium)
}
