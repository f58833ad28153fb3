package telemetry

import "raidii/internal/sim"

// kindStats is the fixed record one request kind accumulates: End folds
// each request of the kind into it, and Summary and both exporters read it.
// The latency histogram's count is the kind's completed requests.
type kindStats struct {
	failed, degraded, retried, shed uint64 // requests with that outcome
	hits, misses, retries           uint64 // summed over the kind's requests
	stages                          [numStages]sim.Duration
	duration                        Histogram
}

// Registry holds one engine's metrics.  Create or fetch one with Attach;
// model code reaches it through From(p.Engine()), and every instrumentation
// helper is nil-safe, so instrumentation never fails.  All methods must be
// called under the engine's single-threaded discipline (from simulated
// processes, sampler callbacks, or between runs).
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

// Sampler records the in-flight gauge at a fixed simulated interval.  It is
// driven passively by the engine's sampler hook (sim.Engine.AddSampler):
// ticks fire from the event loop when simulated time crosses an interval
// boundary, never by scheduling events, so sampling cannot perturb the run
// and the engine still drains normally.
type Sampler struct {
	interval sim.Duration
	points   []JSONPoint // one per tick since the first request began
}

// StartSampler creates (or returns the already-running) sampler ticking
// every interval of simulated time.  The first call fixes the interval;
// later calls return the same sampler regardless of the argument.
func (r *Registry) StartSampler(interval sim.Duration) *Sampler {
	if r.sampler == nil {
		s := &Sampler{interval: interval}
		r.sampler = s
		r.eng.AddSampler(interval, func(at sim.Time) {
			if r.begun {
				s.points = append(s.points, JSONPoint{AtNs: int64(at), Value: float64(r.inflight)})
			}
		})
	}
	return r.sampler
}
