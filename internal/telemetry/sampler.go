package telemetry

import "raidii/internal/sim"

// Sampler snapshots the registry's gauges into time series at a fixed
// simulated interval.  It is driven passively by the engine's sampler hook
// (sim.Engine.AddSampler): ticks fire from the event loop when simulated
// time crosses an interval boundary, never by scheduling events, so sampling
// cannot perturb the run and the engine still drains normally.
type Sampler struct {
	reg      *Registry
	interval sim.Duration

	names  []string // series in first-appearance order
	series map[string]*Series
}

// SamplePoint is one (time, value) sample.
type SamplePoint struct {
	At    sim.Time
	Value float64
}

// Series is one sampled quantity over time.
type Series struct {
	Name   string
	Points []SamplePoint
}

// StartSampler creates (or returns the already-running) sampler ticking
// every interval of simulated time.  Each tick records every gauge series
// currently in the registry.  The first call
// fixes the interval; later calls return the same sampler regardless of
// the argument.
func (r *Registry) StartSampler(interval sim.Duration) *Sampler {
	if r.sampler != nil {
		return r.sampler
	}
	s := &Sampler{reg: r, interval: interval, series: map[string]*Series{}}
	r.sampler = s
	r.eng.AddSampler(interval, s.tick)
	return s
}

// Sampler returns the registry's sampler, or nil when none was started.
func (r *Registry) Sampler() *Sampler { return r.sampler }

// Interval returns the sampling interval.
func (s *Sampler) Interval() sim.Duration { return s.interval }

// tick records one sample of every gauge at boundary time at.
// Gauge keys are iterated sorted, so a gauge created mid-run joins the
// sample set at a deterministic tick and position.
func (s *Sampler) tick(at sim.Time) {
	for _, id := range sortedKeys(s.reg.gauges) {
		s.record(id, at, s.reg.gauges[id].v)
	}
}

// record appends one point to the named series, creating it on first use.
func (s *Sampler) record(name string, at sim.Time, v float64) {
	sr, ok := s.series[name]
	if !ok {
		sr = &Series{Name: name}
		s.series[name] = sr
		s.names = append(s.names, name)
	}
	sr.Points = append(sr.Points, SamplePoint{At: at, Value: v})
}

// SeriesList returns the recorded series in first-appearance order (which
// is deterministic: gauges appear sorted within a tick, ticks in time
// order).
func (s *Sampler) SeriesList() []*Series {
	out := make([]*Series, 0, len(s.names))
	for _, n := range s.names {
		out = append(out, s.series[n])
	}
	return out
}
