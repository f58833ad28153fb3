package telemetry

import (
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"raidii/internal/sim"
	"raidii/internal/trace"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram not zero-valued: n=%d sum=%v", h.N(), h.Sum())
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty Quantile(0.5) = %v, want 0", q)
	}
	if b := h.Buckets(); b != nil {
		t.Fatalf("empty Buckets() = %v, want nil", b)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(1500)
	if h.N() != 1 || h.Sum() != 1500 || h.Min() != 1500 || h.Max() != 1500 {
		t.Fatalf("single-sample stats wrong: %+v", h)
	}
	// Every quantile of a single sample is that sample (min/max clamping).
	for _, q := range []float64{0, 0.001, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1500 {
			t.Fatalf("Quantile(%g) = %v, want 1500", q, got)
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// d <= 0 lands in bucket 0; d in [2^(i-1), 2^i) lands in bucket i.
	cases := []struct {
		d    sim.Duration
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogramTopBucket(t *testing.T) {
	var h Histogram
	huge := sim.Duration(1<<62 + 1<<61) // near the int64 limit
	h.Observe(huge)
	if got := h.Max(); got != huge {
		t.Fatalf("Max = %v, want %v", got, huge)
	}
	// The sample must not be lost: the top value bucket covers it.
	b := h.Buckets()
	if len(b) == 0 || b[len(b)-1].Count != 1 {
		t.Fatalf("huge observation lost from buckets: %v", b)
	}
	if got := h.Quantile(0.999); got != huge {
		t.Fatalf("Quantile(0.999) = %v, want clamped to max %v", got, huge)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	// 100 samples spread uniformly in bucket 11 ([1024, 2048) ns):
	// interpolation should land quantiles inside the bucket range in order.
	for i := 0; i < 100; i++ {
		h.Observe(sim.Duration(1024 + i*10))
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 < 1024 || p50 >= 2048 {
		t.Fatalf("p50 %v outside bucket range [1024, 2048)", p50)
	}
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	if p99 > h.Max() {
		t.Fatalf("p99 %v above max %v", p99, h.Max())
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(3)
	h.Observe(1000)
	b := h.Buckets()
	if len(b) == 0 {
		t.Fatal("no buckets")
	}
	var prev uint64
	for _, bc := range b {
		if bc.Count < prev {
			t.Fatalf("cumulative counts decreased: %v", b)
		}
		prev = bc.Count
	}
	if b[len(b)-1].Count != h.N() {
		t.Fatalf("last bucket %d != N %d", b[len(b)-1].Count, h.N())
	}
	// Inclusive le semantics: the bucket holding 3 ([2,4) ns) has le 3.
	found := false
	for _, bc := range b {
		if bc.LE == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no le=3 bucket for observation 3: %v", b)
	}
}

func TestAttachIsIdempotent(t *testing.T) {
	e := sim.New()
	r := Attach(e)
	if Attach(e) != r {
		t.Fatal("second Attach returned a different registry")
	}
	if From(e) != r {
		t.Fatal("From did not return the attached registry")
	}
}

// exports renders both of r's exports as one string.
func exports(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := WritePrometheus(&b, r, ExportOptions{Run: "t"}); err != nil {
		t.Fatal(err)
	}
	js, err := json.MarshalIndent(Export(r, ExportOptions{Run: "t"}), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b.Write(js)
	return b.String()
}

// TestSummaryDoesNotCreateSeries: Summary of a kind that never ended a
// request adds nothing to either export.
func TestSummaryDoesNotCreateSeries(t *testing.T) {
	e := sim.New()
	r := Attach(e)
	e.Spawn("req", func(p *sim.Proc) {
		req := Begin(p, "seen")
		p.Wait(time.Millisecond)
		req.End(p, nil)
	})
	e.Run()
	before := exports(t, r)
	if s := r.Summary("never-seen"); s.N != 0 || s.Stages != nil {
		t.Fatalf("Summary of an unseen kind = %+v, want zero", s)
	}
	if after := exports(t, r); after != before || strings.Contains(after, "never-seen") {
		t.Fatalf("Summary changed the exports:\n%s\nwas\n%s", after, before)
	}
}

// stageTotals returns kind's per-stage totals by stage label.
func stageTotals(r *Registry, kind string) map[string]sim.Duration {
	got := map[string]sim.Duration{}
	for _, st := range r.Summary(kind).Stages {
		got[st.Stage] = st.Total
	}
	return got
}

func wantStages(t *testing.T, got, want map[string]sim.Duration) {
	t.Helper()
	for k, v := range want {
		if got[k] != v {
			t.Errorf("stage %s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("stages = %v, want exactly %v", got, want)
	}
}

func TestRequestStageAccounting(t *testing.T) {
	e := sim.New()
	r := Attach(e)
	e.Spawn("req", func(p *sim.Proc) {
		req := Begin(p, "unit")
		// 10 ms in raid, with 4 ms of scsi nested inside: exclusive raid
		// time must be 6 ms.
		endRAID := p.Span("raid", "read")
		p.Wait(3 * time.Millisecond)
		endSCSI := p.Span("scsi", "read")
		p.Wait(4 * time.Millisecond)
		endSCSI()
		p.Wait(3 * time.Millisecond)
		endRAID()
		req.End(p, nil)
	})
	e.Run()
	s := r.Summary("unit")
	if s.N != 1 {
		t.Fatalf("N = %d, want 1", s.N)
	}
	wantStages(t, stageTotals(r, "unit"), map[string]sim.Duration{
		"raid": 6 * time.Millisecond,
		"scsi": 4 * time.Millisecond,
	})
	if s.Mean != 10*time.Millisecond {
		t.Errorf("Mean = %v, want 10ms", s.Mean)
	}
}

// TestSpanNestingIsSumNeutral covers what only the one vocabulary can say:
// a span of the same stage nested in a stage span splits its time without
// changing the stage's sum, and a span of a category that is no stage
// leaves its time with the stage around it.
func TestSpanNestingIsSumNeutral(t *testing.T) {
	e := sim.New()
	r := Attach(e)
	e.Spawn("req", func(p *sim.Proc) {
		req := Begin(p, "unit")
		endRAID := p.Span("raid", "write")
		p.Wait(time.Millisecond)
		endRMW := p.Span("raid", "rmw-write")
		p.Wait(2 * time.Millisecond)
		endXOR := p.Span("xbus", "parity")
		p.Wait(4 * time.Millisecond)
		endXOR()
		endRMW()
		endPkt := p.Span("hippi", "packet")
		p.Wait(8 * time.Millisecond)
		endPkt()
		endRAID()
		endPkt = p.Span("hippi", "packet") // under no stage: charged nowhere
		p.Wait(16 * time.Millisecond)
		endPkt()
		req.End(p, nil)
	})
	e.Run()
	wantStages(t, stageTotals(r, "unit"), map[string]sim.Duration{"raid": 15 * time.Millisecond})
}

func TestRequestAdoptAndOutcomes(t *testing.T) {
	e := sim.New()
	r := Attach(e)
	e.Spawn("req", func(p *sim.Proc) {
		req := Begin(p, "unit")
		g := p.Fork()
		g.Go("worker", func(q *sim.Proc) error {
			end := q.Span("disk", "read")
			q.Wait(2 * time.Millisecond)
			end()
			q.Wait(time.Millisecond) // parent has no stage open: charged nowhere
			q.Span("raid", "degraded")()
			q.Span("cache", "hit")()
			q.Span("cache", "miss")()
			q.Span("scsi", "retry")()
			return errors.New("boom")
		})
		req.End(p, g.Wait(p))
	})
	e.Run()
	s := r.Summary("unit")
	if s.N != 1 || s.Degraded != 1 || s.Retried != 1 || s.Retries != 1 {
		t.Fatalf("outcomes wrong: %+v", s)
	}
	if got := r.kinds["unit"].failed; got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
	if got := r.kinds["unit"].hits; got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	wantStages(t, stageTotals(r, "unit"), map[string]sim.Duration{"disk": 2 * time.Millisecond})
}

// TestAdoptInheritsOpenStage: a worker forked while its parent has a raid
// span open accrues the time it spends outside spans of its own to raid,
// up to the moment its body returns.
func TestAdoptInheritsOpenStage(t *testing.T) {
	e := sim.New()
	r := Attach(e)
	e.Spawn("req", func(p *sim.Proc) {
		req := Begin(p, "unit")
		endRAID := p.Span("raid", "write")
		g := p.Fork()
		g.Go("worker", func(q *sim.Proc) error {
			q.Wait(time.Millisecond) // XOR, bookkeeping
			end := q.Span("scsi", "write")
			q.Wait(2 * time.Millisecond)
			end()
			q.Wait(4 * time.Millisecond) // tail after the last span
			return nil
		})
		_ = g.Wait(p)
		endRAID()
		req.End(p, nil)
	})
	e.Run()
	// The parent's frame spans the 7 ms it waited; the worker adds 5 ms of
	// raid work of its own — stage sums measure work, not wall clock.
	wantStages(t, stageTotals(r, "unit"), map[string]sim.Duration{
		"raid": 12 * time.Millisecond,
		"scsi": 2 * time.Millisecond,
	})
}

func TestEnsureJoinsExistingRequest(t *testing.T) {
	e := sim.New()
	r := Attach(e)
	var err error
	e.Spawn("req", func(p *sim.Proc) {
		req := Begin(p, "outer")
		// A datapath entry point under a live request must not start a
		// second one, and its stage spans feed the outer request.
		done := Ensure(p, "inner")
		end := p.Span("cache", "read")
		p.Wait(time.Millisecond)
		end()
		done(&err)
		req.End(p, nil)
	})
	e.Run()
	if got := r.Summary("inner").N; got != 0 {
		t.Fatalf("Ensure under a live request recorded %d inner requests", got)
	}
	if got := r.Summary("outer").N; got != 1 {
		t.Fatalf("outer N = %d, want 1", got)
	}
	wantStages(t, stageTotals(r, "outer"), map[string]sim.Duration{"cache": time.Millisecond})
	// Without a live request Ensure begins and ends one, failed if the
	// entry point's error is set by then.
	e2 := sim.New()
	r2 := Attach(e2)
	e2.Spawn("bare", func(p *sim.Proc) {
		var err error
		done := Ensure(p, "inner")
		end := p.Span("cache", "read")
		p.Wait(time.Millisecond)
		end()
		err = errors.New("boom")
		done(&err)
	})
	e2.Run()
	if got := r2.Summary("inner").N; got != 1 {
		t.Fatalf("bare Ensure N = %d, want 1", got)
	}
	if got := r2.kinds["inner"].failed; got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
	wantStages(t, stageTotals(r2, "inner"), map[string]sim.Duration{"cache": time.Millisecond})
}

// TestEnsureOpensDatapathSpan: the entry point names its kind once, and the
// trace still gets its datapath/<kind> span.
func TestEnsureOpensDatapathSpan(t *testing.T) {
	e := sim.New()
	rec := trace.Attach(e, trace.Config{})
	var err error
	e.Spawn("bare", func(p *sim.Proc) {
		defer Ensure(p, "fs-read")(&err)
		p.Wait(time.Millisecond)
	})
	e.Run()
	got := rec.SpanCounts()
	if len(got) != 1 || got[0] != (trace.SpanCount{Cat: "datapath", Name: "fs-read", Count: 1, Total: time.Millisecond}) {
		t.Fatalf("spans = %+v, want one 1 ms datapath/fs-read", got)
	}
}

func TestInstrumentationNilSafe(t *testing.T) {
	e := sim.New() // no registry attached
	e.Spawn("bare", func(p *sim.Proc) {
		if Begin(p, "x") != nil {
			t.Error("Begin without registry should return nil")
		}
		end := p.Span("raid", "read")
		for _, o := range outcomes {
			p.Span(o.cat, o.name)()
		}
		end()
		Ensure(p, "y")(new(error))
		var req *Request
		req.End(p, nil) // nil receiver must not panic
	})
	e.Run()
	var r *Registry
	if s := r.Summary("x"); s.Kind != "x" || s.N != 0 {
		t.Fatalf("Summary of a nil registry = %+v, want zero for kind x", s)
	}
}

// TestOutcomeSpansReconcile attaches a trace recorder and a registry to one
// engine.  Every outcome span closed on a request's processes counts
// exactly once in both; the same spans on a background process, and a
// cluster/retry span on the request's, count nothing in telemetry.  Each
// span goes to a request of its own, closed 1 + row-number times on the
// request's process and once on a worker it forks, so a row that counts
// toward the wrong outcome, or twice, shows.
func TestOutcomeSpansReconcile(t *testing.T) {
	counts := []struct{ cat, name, as string }{
		{"cache", "hit", "hits"},
		{"cache", "miss", "misses"},
		{"scsi", "retry", "retries"},
		{"client", "retry", "retries"},
		{"server", "shed", "shed"},
		{"raid", "degraded", "degraded"},
		{"server", "degraded", "degraded"},
	}
	if len(counts) != len(outcomes) {
		t.Fatalf("outcomes has %d rows, the test knows %d", len(outcomes), len(counts))
	}
	e := sim.New()
	rec := trace.Attach(e, trace.Config{})
	r := Attach(e)
	for i, c := range counts {
		e.Spawn("req", func(p *sim.Proc) {
			req := Begin(p, c.cat+"/"+c.name)
			for range i + 1 {
				end := p.Span(c.cat, c.name)
				p.Wait(time.Millisecond)
				end()
			}
			p.Span("cluster", "retry")()
			g := p.Fork()
			g.Go("worker", func(q *sim.Proc) error {
				q.Span(c.cat, c.name)()
				return nil
			})
			req.End(p, g.Wait(p))
		})
		e.Spawn("background", func(p *sim.Proc) { p.Span(c.cat, c.name)() })
	}
	e.Run()
	traced := map[string]uint64{}
	for _, sc := range rec.SpanCounts() {
		traced[sc.Cat+"/"+sc.Name] = sc.Count
	}
	for i, c := range counts {
		kind := c.cat + "/" + c.name
		s := r.kinds[kind]
		got := map[string]uint64{"hits": s.hits, "misses": s.misses, "retries": s.retries,
			"retried": s.retried, "degraded": s.degraded, "shed": s.shed}
		onRequest := uint64(i + 2)
		if traced[kind] != onRequest+1 {
			t.Errorf("%s: trace has %d spans, want %d", kind, traced[kind], onRequest+1)
		}
		want := map[string]uint64{c.as: onRequest}
		switch c.as {
		case "retries":
			want["retried"] = 1
		case "degraded", "shed":
			want[c.as] = 1 // a count of requests
		}
		for k, v := range got {
			if v != want[k] {
				t.Errorf("%s: %s = %d, want %d", kind, k, v, want[k])
			}
		}
	}
	if traced["cluster/retry"] != uint64(len(counts)) {
		t.Errorf("trace has %d cluster/retry spans, want %d", traced["cluster/retry"], len(counts))
	}
}

// TestOutcomeMatchAllocates: matching a closing span against the outcome
// table allocates nothing, whether it matches or not.
func TestOutcomeMatchAllocates(t *testing.T) {
	e := sim.New()
	Attach(e)
	e.Spawn("req", func(p *sim.Proc) {
		req := Begin(p, "unit")
		sc := scopeOf(p)
		allocs := testing.AllocsPerRun(100, func() {
			for _, o := range outcomes {
				sc.SpanEnd(o.cat, o.name, p.Now())
			}
			sc.SpanEnd("cluster", "retry", p.Now())
			sc.SpanEnd("xbus", "parity", p.Now())
		})
		if allocs != 0 {
			t.Errorf("matching outcome spans allocated %v times per run", allocs)
		}
		req.End(p, nil)
	})
	e.Run()
}

// TestSpanOutlivingRequest: a span still open when its request ends, or
// opened before the request began, closes without charging anyone.
func TestSpanOutlivingRequest(t *testing.T) {
	e := sim.New()
	r := Attach(e)
	e.Spawn("req", func(p *sim.Proc) {
		before := p.Span("disk", "read")
		req := Begin(p, "first")
		during := p.Span("raid", "read")
		p.Wait(time.Millisecond)
		before()
		req.End(p, nil)
		req2 := Begin(p, "second")
		p.Wait(time.Millisecond)
		during()
		req2.End(p, nil)
	})
	e.Run()
	wantStages(t, stageTotals(r, "first"), map[string]sim.Duration{})
	wantStages(t, stageTotals(r, "second"), map[string]sim.Duration{})
}

// TestSamplerRecordsGauges: the sampler records the in-flight gauge at
// every interval boundary from the first one after a request began, and the
// value tracks Begin and End.
func TestSamplerRecordsGauges(t *testing.T) {
	e := sim.New()
	r := Attach(e)
	s := r.StartSampler(10 * time.Millisecond)
	if r.StartSampler(99*time.Millisecond) != s {
		t.Fatal("StartSampler not idempotent")
	}
	request := func(name string, at, d sim.Duration) {
		e.Spawn(name, func(p *sim.Proc) {
			p.Wait(at)
			req := Begin(p, "k")
			p.Wait(d)
			req.End(p, nil)
		})
	}
	request("a", 12*time.Millisecond, 30*time.Millisecond) // in flight 12-42 ms
	request("b", 15*time.Millisecond, 10*time.Millisecond) // in flight 15-25 ms
	e.Spawn("idle", func(p *sim.Proc) { p.Wait(55 * time.Millisecond) })
	e.Run()
	x := Export(r, ExportOptions{})
	if x.IntervalNs != int64(10*time.Millisecond) {
		t.Fatalf("interval = %d ns, want 10 ms (the first call fixes it)", x.IntervalNs)
	}
	// No point at 10 ms: no request had begun, so the gauge did not exist.
	want := []JSONPoint{{20e6, 2}, {30e6, 1}, {40e6, 1}, {50e6, 0}}
	if len(x.Series) != 1 || x.Series[0].Name != "raidii_requests_inflight" ||
		!slices.Equal(x.Series[0].Points, want) {
		t.Fatalf("series = %+v, want raidii_requests_inflight %v", x.Series, want)
	}
	if len(x.Gauges) != 1 || x.Gauges[0].Value != 0 {
		t.Fatalf("gauges = %+v, want one at 0", x.Gauges)
	}
}

// TestSamplerBoundaries pins the rule for what a point holds: the point at
// boundary b is the gauge's value before any change at b, points start at
// the first boundary after StartSampler once a request has begun, and the
// last is the last boundary at or before the time of export.  The interval
// is 10 ms; "idle" ends every run at its last event.
func TestSamplerBoundaries(t *testing.T) {
	type span struct{ at, d sim.Duration } // one request, in flight [at, at+d]
	ms := sim.Duration(time.Millisecond)
	cases := []struct {
		name     string
		requests []span
		idle     sim.Duration
		want     []JSONPoint
	}{
		{"begin at a boundary", []span{{5 * ms, 40 * ms}, {20 * ms, 15 * ms}}, 50 * ms,
			[]JSONPoint{{10e6, 1}, {20e6, 1}, {30e6, 2}, {40e6, 1}, {50e6, 0}}},
		{"end at a boundary", []span{{5 * ms, 15 * ms}, {8 * ms, 32 * ms}}, 50 * ms,
			[]JSONPoint{{10e6, 2}, {20e6, 2}, {30e6, 1}, {40e6, 1}, {50e6, 0}}},
		{"first begin at a boundary", []span{{10 * ms, 15 * ms}}, 30 * ms,
			[]JSONPoint{{20e6, 1}, {30e6, 0}}},
		{"several changes at one instant", []span{{5 * ms, 15 * ms}, {20 * ms, 10 * ms}, {20 * ms, 0}}, 40 * ms,
			[]JSONPoint{{10e6, 1}, {20e6, 1}, {30e6, 1}, {40e6, 0}}},
		{"last event on a boundary", []span{{5 * ms, 10 * ms}}, 30 * ms,
			[]JSONPoint{{10e6, 1}, {20e6, 0}, {30e6, 0}}},
		{"last change on a boundary", []span{{5 * ms, 25 * ms}}, 0,
			[]JSONPoint{{10e6, 1}, {20e6, 1}, {30e6, 1}}},
		{"run ends between boundaries", []span{{5 * ms, 10 * ms}}, 28 * ms,
			[]JSONPoint{{10e6, 1}, {20e6, 0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := sim.New()
			r := Attach(e)
			r.StartSampler(10 * ms)
			for _, s := range c.requests {
				e.Spawn("req", func(p *sim.Proc) {
					p.Wait(s.at)
					req := Begin(p, "k")
					p.Wait(s.d)
					req.End(p, nil)
				})
			}
			e.Spawn("idle", func(p *sim.Proc) { p.Wait(c.idle) })
			e.Run()
			wantSeries(t, r, c.want)
		})
	}
}

// TestSamplerStartedAfterBegin: a sampler started while a request is in
// flight takes its first point at the first boundary after the call.
func TestSamplerStartedAfterBegin(t *testing.T) {
	e := sim.New()
	r := Attach(e)
	e.Spawn("req", func(p *sim.Proc) {
		p.Wait(13 * time.Millisecond)
		req := Begin(p, "k")
		r.StartSampler(10 * time.Millisecond)
		p.Wait(20 * time.Millisecond)
		req.End(p, nil)
	})
	e.Spawn("idle", func(p *sim.Proc) { p.Wait(45 * time.Millisecond) })
	e.Run()
	wantSeries(t, r, []JSONPoint{{20e6, 1}, {30e6, 1}, {40e6, 0}})
}

// TestSamplerShutdownEnd: a request ended by Shutdown unwinding its parked
// process's deferred Ensure leaves the points up to the last event at the
// value it had in flight, and the gauge at zero.
func TestSamplerShutdownEnd(t *testing.T) {
	e := sim.New()
	r := Attach(e)
	r.StartSampler(10 * time.Millisecond)
	never := sim.NewEvent(e)
	e.Spawn("parked", func(p *sim.Proc) {
		p.Wait(5 * time.Millisecond)
		var err error
		defer Ensure(p, "k")(&err)
		never.Wait(p)
	})
	e.Spawn("idle", func(p *sim.Proc) { p.Wait(30 * time.Millisecond) })
	e.Run()
	e.Shutdown()
	wantSeries(t, r, []JSONPoint{{10e6, 1}, {20e6, 1}, {30e6, 1}})
	if x := Export(r, ExportOptions{}); len(x.Gauges) != 1 || x.Gauges[0].Value != 0 {
		t.Fatalf("gauges = %+v, want one at 0", x.Gauges)
	}
	if r.Summary("k").N != 1 {
		t.Fatal("the unwound request did not end")
	}
}

// wantSeries fails t unless r's export holds exactly the in-flight series
// want.
func wantSeries(t *testing.T, r *Registry, want []JSONPoint) {
	t.Helper()
	x := Export(r, ExportOptions{})
	if len(x.Series) != 1 || x.Series[0].Name != "raidii_requests_inflight" ||
		!slices.Equal(x.Series[0].Points, want) {
		t.Fatalf("series = %+v, want raidii_requests_inflight %v", x.Series, want)
	}
}

func TestCategoryTable(t *testing.T) {
	if stageOf("client") != 0 || stageOf("disk") != numStages-1 {
		t.Fatal("pipeline layers out of order")
	}
	if stageOf("xbus") != -1 || !KnownCategory("xbus") {
		t.Fatal("xbus must be a declared category that accrues to no stage")
	}
	if KnownCategory("bogus") {
		t.Fatal("undeclared category reported as known")
	}
}

func TestExportDeterministic(t *testing.T) {
	build := func() *Registry {
		e := sim.New()
		r := Attach(e)
		r.StartSampler(5 * time.Millisecond)
		e.Spawn("w", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				req := Begin(p, "k")
				end := p.Span("raid", "read")
				p.Wait(sim.Duration(i+1) * time.Millisecond / 7)
				end()
				req.End(p, nil)
			}
		})
		e.Run()
		return r
	}
	a, b := exports(t, build()), exports(t, build())
	if a != b {
		t.Fatal("identical runs produced different exports")
	}
	if !strings.Contains(a, `"schema": 1`) || !strings.Contains(a, `"raidii_requests_inflight"`) {
		t.Fatalf("JSON export missing schema marker or sampled series:\n%s", a)
	}
}
