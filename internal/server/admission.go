package server

import (
	"fmt"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

// Admission control bounds each board's concurrently serviced client
// requests.  Without it, overload shows up as unbounded queueing on the
// board's internal resources; with it, a full board answers immediately
// with fault.ErrServerBusy and the client's backoff spreads the load —
// bandwidth degrades instead of queue depth growing without bound.

// AdmissionStats counts one board's admission decisions.
type AdmissionStats struct {
	// Admitted requests entered service (possibly after queueing).
	Admitted uint64
	// Queued is how many of the admitted requests had to wait for a slot.
	Queued uint64
	// Shed requests were refused with fault.ErrServerBusy because both the
	// service slots and the wait queue were full.
	Shed uint64
}

// Admit enters the board's admission queue: the request proceeds when one
// of the AdmissionLimit service slots is free, waits FIFO while at most
// AdmissionLimit requests are already waiting, and is shed with
// fault.ErrServerBusy beyond that.  Callers that were admitted must Release
// when the request completes.  With no admission limit configured, Admit
// always succeeds immediately.
func (b *Board) Admit(p *sim.Proc) error {
	if b.adm == nil {
		return nil
	}
	if b.adm.TryAcquire() {
		b.admStats.Admitted++
		p.Span("server", "admit")()
		return nil
	}
	if b.adm.QueueLen() >= b.admDepth {
		b.admStats.Shed++
		p.Span("server", "shed")()
		return fmt.Errorf("server: board %d admission queue full: %w", b.Index, fault.ErrServerBusy)
	}
	b.admStats.Queued++
	endWait := p.Span("admission", "wait")
	b.adm.Acquire(p)
	endWait()
	b.admStats.Admitted++
	p.Span("server", "admit")()
	return nil
}

// Release returns an admitted request's service slot.
func (b *Board) Release() {
	if b.adm != nil {
		b.adm.Release()
	}
}

// AdmissionStats returns the board's admission counters.
func (b *Board) AdmissionStats() AdmissionStats { return b.admStats }
