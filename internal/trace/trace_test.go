package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"raidii/internal/sim"
)

// runContended drives a 2-slot server with four processes so that two of
// them queue.  Returns the engine and recorder.
func runContended(events bool) (*sim.Engine, *Recorder) {
	e := sim.New()
	srv := sim.NewServer(e, "svc", 2)
	rec := Attach(e, Config{Label: "unit", Pid: 7, Events: events})
	for i := 0; i < 4; i++ {
		e.Spawn("worker", func(p *sim.Proc) {
			done := p.Span("test", "hold")
			srv.Use(p, 10*time.Millisecond)
			done()
		})
	}
	e.Run()
	return e, rec
}

func findRes(t *testing.T, rec *Recorder, name string) *Resource {
	t.Helper()
	for _, r := range rec.Resources() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("resource %q not recorded", name)
	return nil
}

func TestRecorderMatchesServerAccounting(t *testing.T) {
	e, rec := runContended(false)
	r := findRes(t, rec, "svc")
	if r.Acquires != 4 {
		t.Errorf("Acquires = %d, want 4", r.Acquires)
	}
	// Four 10 ms holds on two slots: the run lasts 20 ms at 100% utilization.
	if got := r.UtilizationAt(e.Now()); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("utilization = %v, want 1.0", got)
	}
	// Two workers queued for one 10 ms service interval each.
	if r.WaitSum != 20*time.Millisecond {
		t.Errorf("WaitSum = %v, want 20ms", r.WaitSum)
	}
	if r.MaxQueue != 2 {
		t.Errorf("MaxQueue = %d, want 2", r.MaxQueue)
	}
}

func TestTableNamesBottleneck(t *testing.T) {
	_, rec := runContended(false)
	tab := rec.Table(0)
	if !strings.Contains(tab, "bottleneck: svc") {
		t.Errorf("table does not name the bottleneck:\n%s", tab)
	}
	if !strings.Contains(tab, "svc") || !strings.Contains(tab, "100.0%") {
		t.Errorf("table missing expected row:\n%s", tab)
	}
}

func TestTableLimitTruncates(t *testing.T) {
	e := sim.New()
	a := sim.NewServer(e, "a", 1)
	b := sim.NewServer(e, "b", 1)
	rec := Attach(e, Config{Label: "limit"})
	e.Spawn("w", func(p *sim.Proc) {
		a.Use(p, 2*time.Millisecond)
		b.Use(p, time.Millisecond)
	})
	e.Run()
	tab := rec.Table(1)
	if strings.Contains(tab, " b\n") {
		t.Errorf("limit=1 should drop the less-utilized row:\n%s", tab)
	}
	if !strings.Contains(tab, "1 more component") {
		t.Errorf("truncation note missing:\n%s", tab)
	}
}

func TestChromeOutputValidJSON(t *testing.T) {
	_, rec := runContended(true)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("exporter produced invalid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var spans, counters, metas int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
		case "C":
			counters++
		case "M":
			metas++
		}
	}
	// 4 proc lifetimes + 4 "hold" spans; at least one counter sample per
	// acquire/release; process_name + 4 thread_name metadata records.
	if spans != 8 {
		t.Errorf("span events = %d, want 8", spans)
	}
	if counters < 8 {
		t.Errorf("counter events = %d, want >= 8", counters)
	}
	if metas != 5 {
		t.Errorf("metadata events = %d, want 5", metas)
	}
}

func TestTraceByteIdenticalAcrossRuns(t *testing.T) {
	run := func() (string, string) {
		_, rec := runContended(true)
		var buf bytes.Buffer
		if err := WriteChrome(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return buf.String(), rec.Table(0)
	}
	j1, t1 := run()
	j2, t2 := run()
	if j1 != j2 {
		t.Error("Chrome JSON differs between identical runs")
	}
	if t1 != t2 {
		t.Error("utilization table differs between identical runs")
	}
}

// TestShutdownReapedProcsInvisible drives a run where workload processes are
// reaped by Shutdown (host-scheduler order) and asserts the trace output is
// still deterministic: killed processes must contribute no finish events.
func TestShutdownReapedProcsInvisible(t *testing.T) {
	run := func() string {
		e := sim.New()
		srv := sim.NewServer(e, "svc", 1)
		rec := Attach(e, Config{Label: "shutdown", Pid: 1, Events: true})
		for i := 0; i < 4; i++ {
			e.Spawn("looper", func(p *sim.Proc) {
				for {
					srv.Use(p, time.Millisecond)
				}
			})
		}
		e.RunUntil(sim.Time(10 * time.Millisecond.Nanoseconds()))
		e.Shutdown()
		var buf bytes.Buffer
		if err := WriteChrome(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return buf.String() + rec.Table(0)
	}
	first := run()
	for i := 0; i < 4; i++ {
		if run() != first {
			t.Fatalf("trace output varies across identical shutdown runs (iteration %d)", i)
		}
	}
}

func TestAttachReplaysExistingResources(t *testing.T) {
	e := sim.New()
	sim.NewServer(e, "early", 3)
	rec := Attach(e, Config{Label: "replay"})
	r := findRes(t, rec, "early")
	if r.Cap != 3 {
		t.Errorf("replayed capacity = %d, want 3", r.Cap)
	}
}

func TestSameNameResourcesMerge(t *testing.T) {
	e := sim.New()
	rec := Attach(e, Config{Label: "merge"})
	s1 := sim.NewServer(e, "pipe", 2)
	s2 := sim.NewServer(e, "pipe", 4)
	e.Spawn("w", func(p *sim.Proc) {
		s1.Use(p, time.Millisecond)
		s2.Use(p, time.Millisecond)
	})
	e.Run()
	if n := len(rec.Resources()); n != 1 {
		t.Fatalf("merged resource count = %d, want 1", n)
	}
	r := findRes(t, rec, "pipe")
	if r.Cap != 4 {
		t.Errorf("merged cap = %d, want max instance cap 4", r.Cap)
	}
	if r.Acquires != 2 {
		t.Errorf("merged acquires = %d, want 2", r.Acquires)
	}
}

func TestTokensUnitsAccounting(t *testing.T) {
	e := sim.New()
	tk := sim.NewServer(e, "dram", 100)
	rec := Attach(e, Config{Label: "tokens"})
	e.Spawn("w", func(p *sim.Proc) {
		tk.AcquireN(p, 100)
		p.Wait(time.Millisecond)
		tk.ReleaseN(100)
	})
	e.Spawn("w2", func(p *sim.Proc) {
		tk.AcquireN(p, 50) // queues behind w's full-pool hold
		p.Wait(time.Millisecond)
		tk.ReleaseN(50)
	})
	e.Run()
	r := findRes(t, rec, "dram")
	if r.Cap != 100 {
		t.Errorf("pool cap = %d, want 100", r.Cap)
	}
	if r.WaitSum != time.Millisecond {
		t.Errorf("WaitSum = %v, want 1ms", r.WaitSum)
	}
	// 100 units for 1 ms + 50 units for 1 ms over a 2 ms run = 75% of pool.
	if got := r.UtilizationAt(e.Now()); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("utilization = %v, want 0.75", got)
	}
}

// TestChurnTraceByteIdenticalAndFIFO drives an adversarial same-tick churn
// workload — every worker re-arms for the same instant each tick, so the
// event queue is all timestamp ties — records it twice with full events,
// and asserts (a) the Chrome output is byte-identical across runs and
// (b) the span stream preserves the pre-PR-9 ordering contract: within one
// timestamp, spans close in worker spawn order.  This pins the rebuilt
// queue, proc pool and resume fast path to the old observable ordering.
func TestChurnTraceByteIdenticalAndFIFO(t *testing.T) {
	const workers, ticks = 6, 20
	run := func() (string, *Recorder) {
		e := sim.New()
		rec := Attach(e, Config{Label: "churn", Pid: 3, Events: true})
		for w := 0; w < workers; w++ {
			e.Spawn("worker", func(p *sim.Proc) {
				for i := 0; i < ticks; i++ {
					end := p.Span("churn", "tick")
					p.Wait(time.Millisecond)
					end()
				}
			})
		}
		e.Run()
		var buf bytes.Buffer
		if err := WriteChrome(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return buf.String(), rec
	}
	out1, rec := run()
	out2, _ := run()
	if out1 != out2 {
		t.Fatal("Chrome JSON differs between identical churn runs")
	}
	// Spans were recorded close-time ascending; within one close time the
	// workers must appear in spawn order (ascending tid), because equal
	// timestamps dispatch in schedule order.
	var prev *spanRec
	checked := 0
	rec.spans.forEach(func(s *spanRec) {
		if prev != nil {
			if s.end < prev.end {
				t.Fatalf("span close times regressed: %v after %v", s.end, prev.end)
			}
			if s.end == prev.end && s.tid <= prev.tid {
				t.Fatalf("same-tick spans out of spawn order at %v: tid %d after %d",
					s.end, s.tid, prev.tid)
			}
			checked++
		}
		c := *s
		prev = &c
	})
	if want := workers*ticks - 1; checked != want {
		t.Fatalf("checked %d span adjacencies, want %d", checked, want)
	}
}

// TestChunkedSendTrace records a run whose transfers are chunked Path.Sends,
// two senders contending on a slow middle link: every chunk's acquire is
// counted on every link, the queue shows in the wait sums, and the Chrome
// export is valid JSON with one row per sender and none per chunk (chunks
// are engine steps, not processes; their resource hooks carry no process).
func TestChunkedSendTrace(t *testing.T) {
	e := sim.New()
	rec := Attach(e, Config{Label: "chunks", Pid: 2, Events: true})
	path := sim.Path{sim.NewLink(e, "in", 40, 0), sim.NewLink(e, "slow", 5, 0), sim.NewLink(e, "out", 40, 0)}
	for i := 0; i < 2; i++ {
		e.Spawn("sender", func(p *sim.Proc) {
			end := p.Span("test", "send")
			path.Send(p, 8*sim.DefaultChunk, 0)
			end()
		})
	}
	e.Run()
	for _, name := range []string{"in", "slow", "out"} {
		if r := findRes(t, rec, name); r.Acquires != 16 || r.UtilizationAt(e.Now()) <= 0 {
			t.Errorf("%s: %d acquires (want 16), utilization %v", name, r.Acquires, r.UtilizationAt(e.Now()))
		}
	}
	if r := findRes(t, rec, "slow"); r.WaitSum <= 0 || r.MaxQueue < 2 {
		t.Errorf("slow link shows no queue: wait %v, max queue %d", r.WaitSum, r.MaxQueue)
	}
	if tab := rec.Table(0); !strings.Contains(tab, "bottleneck: slow") {
		t.Errorf("table does not name the slow link:\n%s", tab)
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome JSON: %v", err)
	}
	var rows, spans int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev["name"] == "thread_name":
			rows++
		case ev["ph"] == "X" && ev["cat"] == "test":
			spans++
		}
	}
	if rows != 2 || spans != 2 {
		t.Errorf("chrome export has %d process rows and %d send spans, want 2 and 2", rows, spans)
	}
}

// TestTableAdmissionWait: a request that queued 2 ms for a service slot
// shows that wait in the admission line, and counts as queued by its
// admission/wait span alone.
func TestTableAdmissionWait(t *testing.T) {
	e := sim.New()
	slots := sim.NewServer(e, "admission", 1)
	rec := Attach(e, Config{Label: "admission"})
	e.Spawn("holder", func(p *sim.Proc) {
		slots.Acquire(p)
		p.Span("server", "admit")()
		p.Wait(2 * time.Millisecond)
		slots.Release()
	})
	e.Spawn("queued", func(p *sim.Proc) {
		endWait := p.Span("admission", "wait")
		slots.Acquire(p)
		endWait()
		p.Span("server", "admit")()
		slots.Release()
	})
	e.Run()
	if tab := rec.Table(0); !strings.Contains(tab, "admission: 2 admitted (1 queued 0.002s total wait), 0 shed\n") {
		t.Fatalf("admission line does not show the 2 ms wait:\n%s", tab)
	}
}
