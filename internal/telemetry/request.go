package telemetry

import (
	"slices"

	"raidii/internal/sim"
)

// This file implements the request-scoped context: one *Request rides a
// simulated process (and, via Follow, the worker processes forked on its
// behalf) from the moment a client or datapath entry point begins it until
// End folds its latency, stage breakdown and outcomes into its kind's record.
//
// Stage accounting and outcome counts are fed by Proc.Span — the same call
// that feeds the trace.  The process's scope is its sim.SpanScope: when a
// span whose category is a pipeline layer (see categories in telemetry.go)
// closes, its *exclusive* time — its duration minus that of the stage spans
// that ran inside it on the same process — is charged to that stage, so a
// scsi span inside a raid span splits the time instead of double-counting
// it; when the span is an outcome span (see outcomes), it counts.  Worker
// processes the request follows account for themselves against the shared
// Request, so overlapping legs each record their true work.

// Request accumulates one in-flight request's telemetry.  A nil *Request
// is valid and inert, so callers never need to check whether telemetry is
// attached.
type Request struct {
	reg   *Registry
	kind  string
	start sim.Time
	done  bool

	stages  [numStages]sim.Duration
	hits    uint64
	misses  uint64
	retries uint64

	degraded bool
}

// closedSpan is a stage span that has closed and that no stage span
// around it has yet subtracted from its own time.
type closedSpan struct {
	start sim.Time
	total sim.Duration
	extra sim.Duration // unclaimed time of workers forked at start; see Follow
}

// scope is the per-process annotation: the request the process works for
// plus that process's own stage accounting.
type scope struct {
	req    *Request
	p      *sim.Proc
	parent *scope       // the forking process's scope, if any
	since  sim.Time     // spans that began before the scope did are not the request's
	closed []closedSpan // ascending by start
}

// SpanEnd implements sim.SpanScope: a closing span of a pipeline-layer
// category is charged its exclusive time, and an outcome span (see outcomes
// in telemetry.go) counts toward the request's outcomes.  A span of any
// other category is skipped, which leaves its time with the stage span
// around it.
func (sc *scope) SpanEnd(cat, name string, start sim.Time) {
	if sc.req.done || start < sc.since {
		return
	}
	if st := stageOf(cat); st >= 0 {
		total := sc.p.Now().Sub(start)
		nested, extra := sc.claim(start)
		sc.closed = append(sc.closed, closedSpan{start: start, total: total})
		sc.req.stages[st] += total - nested + extra
	}
	for i := range outcomes {
		if o := &outcomes[i]; o.cat == cat && o.name == name {
			o.count(sc.req)
		}
	}
}

// claim removes the entries that began at or after start and returns their
// sums.  Spans on one process nest, and a span that closed before this one
// opened began strictly earlier (or lasted no time), so those entries are
// exactly what ran inside the span that began at start: it subtracts their
// time from its own and stands in for them towards whatever encloses it.
func (sc *scope) claim(start sim.Time) (nested, extra sim.Duration) {
	n := len(sc.closed)
	for ; n > 0 && sc.closed[n-1].start >= start; n-- {
		nested += sc.closed[n-1].total
		extra += sc.closed[n-1].extra
	}
	sc.closed = sc.closed[:n]
	return nested, extra
}

// release ends a forked worker's accounting: the part of its life since
// the fork that none of its own stage spans covered is handed to the
// forking scope, dated at the fork, where the innermost stage span open
// since then claims it when it closes.
func (sc *scope) release() {
	if sc.req.done {
		return
	}
	nested, extra := sc.claim(sc.since)
	e := closedSpan{start: sc.since, extra: sc.p.Now().Sub(sc.since) - nested + extra}
	up := sc.parent
	i := len(up.closed)
	for ; i > 0 && up.closed[i-1].start > e.start; i-- {
	}
	up.closed = slices.Insert(up.closed, i, e)
}

// scopeOf returns p's scope, or nil.
func scopeOf(p *sim.Proc) *scope {
	sc, _ := p.MeterContext().(*scope)
	return sc
}

// reqOf returns the live request p works for, or nil.
func reqOf(p *sim.Proc) *Request {
	if sc := scopeOf(p); sc != nil && !sc.req.done {
		return sc.req
	}
	return nil
}

// Begin starts a request of the given kind on p, replacing any previous
// scope.  It returns nil (inert) when no registry is attached to p's
// engine.  kind labels every metric the request records ("client-read",
// "fs-write", ...).
func Begin(p *sim.Proc, kind string) *Request {
	reg := From(p.Engine())
	if reg == nil {
		return nil
	}
	r := &Request{reg: reg, kind: kind, start: p.Now()}
	p.SetMeterContext(&scope{req: r, p: p, since: p.Now()})
	reg.sample(p.Now())
	reg.inflight++
	reg.begun = true
	return r
}

// Ensure is how a datapath entry point instruments itself: it opens the
// datapath/<kind> span and begins a request of that kind if p does not
// already carry one, and returns the closer for both.  When p already
// works for a request (a client began one upstream) the call joins it, so
// requests that arrived through the client library are not counted twice.
// Use as
//
//	defer telemetry.Ensure(p, "fs-read")(&err)
//
// with err the entry point's named result.
func Ensure(p *sim.Proc, kind string) func(err *error) {
	end := p.Span("datapath", kind)
	var r *Request
	if reqOf(p) == nil {
		r = Begin(p, kind)
	}
	return func(err *error) {
		r.End(p, *err)
		end()
	}
}

// noRelease is returned when Follow has nothing to close.
var noRelease = func() {}

// Follow implements sim.SpanScope: the request follows a worker forked from
// the scope's process, so work done by the worker is charged to the request.
// The worker accounts for its own stage spans, and inherits one thing: the
// time from here to the returned release that no stage span of its own
// covers accrues to the stage span the forking process has open around the
// fork (the innermost one, and to no stage if there is none) — a worker's
// bookkeeping belongs to the layer that forked it.  No-op once the request
// has ended.
func (up *scope) Follow(worker *sim.Proc) func() {
	if up.req.done {
		return noRelease
	}
	sc := &scope{req: up.req, p: worker, parent: up, since: worker.Now()}
	worker.SetMeterContext(sc)
	return sc.release
}

// End completes the request at p's current time and folds it into its
// kind's record: the end-to-end duration feeds the latency histogram, stage
// times and line counts add to their totals, and each outcome counts the
// request once.  err non-nil additionally counts the request as failed.  End
// is idempotent and nil-safe; it clears p's scope when p still carries this
// request.
func (r *Request) End(p *sim.Proc, err error) {
	if r == nil || r.done {
		return
	}
	r.done = true
	if sc := scopeOf(p); sc != nil && sc.req == r {
		p.SetMeterContext(nil)
	}
	reg := r.reg
	reg.sample(p.Now())
	reg.inflight--
	s := reg.kinds[r.kind]
	if s == nil {
		s = &kindStats{}
		reg.kinds[r.kind] = s
	}
	s.duration.Observe(p.Now().Sub(r.start))
	for st, d := range r.stages {
		if d > 0 {
			s.stages[st] += d
		}
	}
	s.hits += r.hits
	s.misses += r.misses
	s.retries += r.retries
	if err != nil {
		s.failed++
	}
	if r.degraded {
		s.degraded++
	}
	if r.retries > 0 {
		s.retried++
	}
}

// StageMean is one stage's share of a kind's requests.
type StageMean struct {
	Stage string
	Total sim.Duration // summed exclusive stage time across all requests
	Mean  sim.Duration // Total / request count
}

// LatencySummary condenses one request kind's telemetry for experiment
// reports: tail quantiles of the end-to-end latency histogram plus the
// per-stage breakdown.
type LatencySummary struct {
	Kind             string
	N                uint64
	Mean, P50        sim.Duration
	P99, P999, Max   sim.Duration
	Stages           []StageMean
	Degraded         uint64
	Retried, Retries uint64
}

// Summary reports the latency summary for one request kind, zero-valued if
// the kind never completed a request or r is nil (no registry attached).
func (r *Registry) Summary(kind string) LatencySummary {
	out := LatencySummary{Kind: kind}
	if r == nil || r.kinds[kind] == nil {
		return out
	}
	s := r.kinds[kind]
	h := &s.duration
	out.N = h.N()
	out.Mean = h.Mean()
	out.P50 = h.Quantile(0.50)
	out.P99 = h.Quantile(0.99)
	out.P999 = h.Quantile(0.999)
	out.Max = h.Max()
	for st, total := range s.stages {
		if total > 0 {
			out.Stages = append(out.Stages, StageMean{Stage: categories[st], Total: total, Mean: total / sim.Duration(out.N)})
		}
	}
	out.Degraded = s.degraded
	out.Retried = s.retried
	out.Retries = s.retries
	return out
}
