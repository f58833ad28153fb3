package telemetry

import (
	"math"

	"raidii/internal/sim"
)

// kindStats is the fixed record one request kind accumulates: End folds
// each request of the kind into it, and Summary and both exporters read it.
// The latency histogram's count is the kind's completed requests.
type kindStats struct {
	failed, degraded, retried uint64 // requests with that outcome
	hits, misses, retries     uint64 // summed over the kind's requests
	stages                    [numStages]sim.Duration
	duration                  Histogram
}

// Registry holds one engine's metrics.  Create or fetch one with Attach;
// model code reaches it through From(p.Engine()), and every instrumentation
// helper is nil-safe, so instrumentation never fails.  All methods must be
// called under the engine's single-threaded discipline (from simulated
// processes or between runs).
type Registry struct {
	eng      *sim.Engine
	kinds    map[string]*kindStats // a kind appears at its first End
	inflight uint64                // requests begun and not yet ended
	begun    bool                  // a request has begun: the gauge exists
	sampler  *Sampler
}

// Attach returns the registry parked on e's meter slot, creating and
// attaching one if none exists.  Attaching is idempotent: experiments and
// tools (raidbench -metrics) that both attach to the same engine share one
// registry, so their numbers agree.
func Attach(e *sim.Engine) *Registry {
	if r, ok := e.Meter().(*Registry); ok && r != nil {
		return r
	}
	r := &Registry{eng: e, kinds: map[string]*kindStats{}}
	e.SetMeter(r)
	return r
}

// From returns the registry attached to e, or nil.  All instrumentation
// helpers in this package are nil-safe, so hot-path code calls them
// unconditionally and pays one nil check when telemetry is off.
func From(e *sim.Engine) *Registry {
	r, _ := e.Meter().(*Registry)
	return r
}

// Sampler records the in-flight gauge at every multiple of a fixed simulated
// interval.  The gauge changes only in Begin and End, so the registry takes
// the points itself: before each change, and at export, it records every
// boundary passed since the last point at the value the gauge held.  A point
// at boundary b is thus the value before any change at b.  Sampling
// schedules nothing, so it cannot perturb the run.
type Sampler struct {
	interval sim.Duration
	next     sim.Time    // the first boundary not yet passed
	points   []JSONPoint // one per boundary since the first request began
}

// StartSampler creates (or returns the already-running) sampler ticking
// every interval of simulated time, from the first boundary after now.  The
// first call fixes the interval; later calls return the same sampler
// regardless of the argument.  A non-positive interval records nothing.
func (r *Registry) StartSampler(interval sim.Duration) *Sampler {
	if r.sampler == nil {
		s := &Sampler{interval: interval, next: math.MaxInt64}
		if t := sim.Time(interval); t > 0 {
			s.next = (r.eng.Now()/t + 1) * t
		}
		r.sampler = s
	}
	return r.sampler
}

// sample passes every boundary up to now, recording the gauge at each once a
// request has begun (before then the gauge does not exist).
func (r *Registry) sample(now sim.Time) {
	s := r.sampler
	if s == nil {
		return
	}
	for ; s.next <= now; s.next = s.next.Add(s.interval) {
		if r.begun {
			s.points = append(s.points, JSONPoint{AtNs: int64(s.next), Value: float64(r.inflight)})
		}
	}
}
