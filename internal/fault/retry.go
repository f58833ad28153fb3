package fault

import (
	"fmt"
	"time"

	"raidii/internal/sim"
)

// RetryPolicy governs the client library's handling of transient request
// failures (see Retryable): how many times to resend, how long to back off
// between attempts, and how long a request may take end to end before the
// client gives up with ErrDeadline.
//
// All delays are simulated time, so an identical policy on an identical
// fault plan replays identically: the backoff sequence is a deterministic
// doubling from Backoff up to BackoffMax, with no jitter.
type RetryPolicy struct {
	// MaxRetries is the number of resends after the first attempt.  The
	// zero value disables retrying: the first failure is final.
	MaxRetries int
	// Backoff is the delay before the first retry; each further retry
	// doubles it.  Zero selects DefaultBackoff when MaxRetries > 0.
	Backoff time.Duration
	// BackoffMax caps the doubling.  Zero selects DefaultBackoffMax.
	BackoffMax time.Duration
	// Deadline bounds one request end to end, across all retries.  Zero
	// means no deadline.
	Deadline time.Duration
}

// Default backoff parameters, used when a policy enables retries without
// setting them explicitly.
const (
	DefaultBackoff    = 5 * time.Millisecond
	DefaultBackoffMax = 100 * time.Millisecond
)

// FirstBackoff returns the delay before the first retry.
func (rp RetryPolicy) FirstBackoff() time.Duration {
	if rp.Backoff > 0 {
		return rp.Backoff
	}
	return DefaultBackoff
}

// NextBackoff returns the delay that follows prev in the doubling schedule.
func (rp RetryPolicy) NextBackoff(prev time.Duration) time.Duration {
	next := 2 * prev
	max := rp.BackoffMax
	if max <= 0 {
		max = DefaultBackoffMax
	}
	if next > max {
		next = max
	}
	return next
}

// Run performs one request under the policy: it calls attempt until it
// succeeds, fails for good (see Retryable), or spends its MaxRetries
// resends, waiting out the doubling backoff in a cat "retry" span between
// tries.  A resend the Deadline would leave no room for is not made: the
// request fails with ErrDeadline, and the error text opens with what.
func (rp RetryPolicy) Run(p *sim.Proc, cat, what string, attempt func() error) error {
	start := p.Now()
	backoff := rp.FirstBackoff()
	for try := 0; ; try++ {
		err := attempt()
		if err == nil || !Retryable(err) || try >= rp.MaxRetries {
			return err
		}
		if spent := p.Now().Sub(start); rp.Deadline > 0 && spent+backoff >= rp.Deadline {
			return fmt.Errorf("%s after %v (%d retries): %w (last error: %w)", what, spent, try, ErrDeadline, err)
		}
		end := p.Span(cat, "retry")
		p.Wait(backoff)
		end()
		backoff = rp.NextBackoff(backoff)
	}
}
