package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"raidii/internal/raid"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smallRuns keeps each (workload, seed) the tests have run, so the suite
// stays under ten seconds.
var smallRuns = map[string]result{}

// smallRun runs one workload at the tests' scale: warm-up, one measured rep,
// one traced rep.  fresh forces a new run of a pair already seen.
func smallRun(t *testing.T, name string, seed int64, fresh bool) result {
	t.Helper()
	key := fmt.Sprintf("%s/%d", name, seed)
	if res, ok := smallRuns[key]; ok && !fresh {
		return res
	}
	for _, w := range workloads {
		if w.name == name {
			res := runWorkload(w, runConfig{seed: seed, reps: 1, traced: true, small: true, log: newSpanLog()})
			if res.Error != "" || res.Failed != 0 {
				t.Fatalf("%s: %d of %d operations failed: %s", name, res.Failed, res.Attempted, res.Error)
			}
			smallRuns[key] = res
			return res
		}
	}
	t.Fatalf("no workload %q", name)
	return result{}
}

// TestEveryDeclaredMetricIsEmitted: each workload emits every end-to-end
// metric, and the workloads' traced reps plus the ladder together emit
// exactly the declared per-layer names — nothing missing, nothing extra.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range append(driverEndToEnd(), perLayer()...) {
		if declared[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		declared[m.Name] = true
	}
	emitted := map[string]bool{}
	for _, w := range workloads {
		res := smallRun(t, w.name, 1, false)
		requests := res.Metrics["sim_p50_ms"].N
		if requests == 0 {
			t.Errorf("%s: no request count beside sim_p50_ms", w.name)
		}
		for _, m := range driverEndToEnd() {
			if st, ok := res.Metrics[m.Name]; !ok || st.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive (%v)", w.name, m.Name, st.Value)
			}
		}
		// A percentile is reported only with ten samples beyond it.
		for name, need := range map[string]int{"sim_p50_ms": 1, "sim_p90_ms": 110, "sim_p99_ms": 1100} {
			if _, ok := res.Metrics[name]; ok != (requests >= need) {
				t.Errorf("%s: %s reported=%v with %d requests", w.name, name, ok, requests)
			}
		}
		if _, ok := res.Metrics["sim_rebuild_s"]; ok != (w.name == "degraded_r6" || w.name == "cluster_stripe") {
			t.Errorf("%s: sim_rebuild_s reported=%v", w.name, ok)
		}
		for name := range res.Metrics {
			emitted[name] = true
		}
	}
	lad, err := runLadder(1, 1, true, newSpanLog())
	if err != nil {
		t.Fatal(err)
	}
	for name := range lad {
		emitted[name] = true
	}
	emitted["sim_p90_ms"], emitted["sim_p99_ms"] = true, true // need 110 and 1,100 requests: full-size runs only
	for name := range declared {
		if !emitted[name] {
			t.Errorf("declared metric %s is never emitted", name)
		}
	}
	for name := range emitted {
		if !declared[name] {
			t.Errorf("emitted metric %s is not declared", name)
		}
	}
}

// TestBenchmarkJSON holds the checked-in BENCHMARK.json to the declarations
// and to the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale: regenerate with `go run ./benchmark -benchmark-json > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
}

// TestSeedDeterminism: one seed gives identical simulated metrics twice; a
// different seed gives different offsets and therefore different ones.
func TestSeedDeterminism(t *testing.T) {
	exact := func(res result) map[string]float64 {
		out := map[string]float64{}
		for name, st := range res.Metrics {
			if m, _ := lookup(name); m.exact {
				out[name] = st.Value
			}
		}
		return out
	}
	a, b := exact(smallRun(t, "degraded_r6", 1, false)), exact(smallRun(t, "degraded_r6", 1, true))
	delete(a, "op_fail_share")
	delete(b, "op_fail_share")
	if err := sameExact(a, b); err != nil {
		t.Errorf("same seed: %v", err)
	}
	c := exact(smallRun(t, "degraded_r6", 2, false))
	if c["sim_mbps"] == a["sim_mbps"] && c["sim_p50_ms"] == a["sim_p50_ms"] {
		t.Errorf("seeds 1 and 2 gave the same simulated metrics: the seed does not reach the offsets")
	}
	if bytes.Equal(newOracle(1).tape, newOracle(2).tape) {
		t.Error("seeds 1 and 2 gave the same data")
	}
}

// TestCorruptionIsReported flips one byte under the RAID-5 ladder rig with
// MemDev.Corrupt and expects the rig's verification to say so.
func TestCorruptionIsReported(t *testing.T) {
	time := func(l *ladder) error {
		rg, err := l.raidRig(raid.Level5, "raid.l5", "raid.l5_read_ns_per_kb", "raid.l5_degraded_read_ns_per_kb", 3)
		if err != nil {
			t.Fatal(err)
		}
		defer rg.eng.Shutdown()
		return l.timeRig(rg, -1, newSpanLog(), map[string][]float64{}, map[string]float64{})
	}
	clean := &ladder{small: true, seed: 1, or: newOracle(1)}
	if err := time(clean); err != nil {
		t.Fatalf("undamaged rig: %v", err)
	}
	damaged := &ladder{small: true, seed: 1, or: newOracle(1)}
	damaged.sabotage = func(devs []*raid.MemDev) { devs[0].Corrupt(100) }
	if err := time(damaged); err == nil {
		t.Fatal("a flipped byte under the array went unreported")
	}
}

// TestWrongBytesCountAsFailures: the oracle rejects a read that differs from
// what was written by one byte, and a failed operation fails the run.
func TestWrongBytesCountAsFailures(t *testing.T) {
	o := newOracle(1)
	data := o.tape[3*blockSize : 5*blockSize]
	o.wrote("/f", 8*blockSize, data)
	got := append([]byte{}, data...)
	if err := o.check("/f", 8*blockSize, got, len(got)); err != nil {
		t.Fatalf("intact read rejected: %v", err)
	}
	got[blockSize+7] ^= 1
	if err := o.check("/f", 8*blockSize, got, len(got)); err == nil {
		t.Fatal("a flipped bit passed the CRC check")
	}
	r := &rep{}
	r.expect(o.check("/f", 8*blockSize, got, len(got)))
	if r.failed != 1 || r.attempted != 1 || r.firstErr == nil {
		t.Fatalf("failure not counted: %d of %d", r.failed, r.attempted)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4) == [3.5, 24.0, 160.0]
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || med != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	host, _ := lookup("host_s") // lower is better
	host.Bound = 0.10
	mbps, _ := lookup("sim_mbps")
	st := func(vals ...float64) stat { return hostStat("s", vals) }
	for _, tc := range []struct {
		name string
		m    metric
		a, b stat
		same bool
		want string
	}{
		{"within bound", host, st(2.00, 2.02, 2.04), st(2.05, 2.08, 2.10), true, verdictOK},
		{"beyond bound", host, st(2.00, 2.02, 2.04), st(2.30, 2.32, 2.34), true, verdictRegressed},
		{"better", host, st(2.00, 2.02, 2.04), st(1.00, 1.02, 1.04), true, verdictOK},
		{"wide and overlapping", host, st(1.6, 2.0, 2.6), st(1.8, 2.1, 2.7), true, verdictUnresolved},
		{"wide but every run worse", host, st(1.6, 2.0, 2.6), st(3.0, 3.4, 4.0), true, verdictRegressed},
		{"exact moved", mbps, stat{Value: 16.15}, stat{Value: 16.16}, true, verdictRegressed},
		{"exact held", mbps, stat{Value: 16.15}, stat{Value: 16.15}, true, verdictOK},
		{"other seed, within bound", mbps, stat{Value: 16.15}, stat{Value: 16.16}, false, verdictOK},
	} {
		if got := judge(tc.m, tc.a, tc.b, tc.same); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	a := document{Workloads: []result{{Workload: "w", Seed: 1, Metrics: map[string]stat{"host_s": st(2, 2, 2)}}}}
	b := document{Workloads: []result{{Workload: "w", Seed: 1, Metrics: map[string]stat{"host_s": st(3, 3, 3)}}}}
	var out bytes.Buffer
	if code := compareDocs(&out, a, a); code != 0 {
		t.Errorf("a run compared with itself exits %d:\n%s", code, out.String())
	}
	if code := compareDocs(&out, a, b); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a 50%% slowdown exits %d:\n%s", code, out.String())
	}
}

// TestDriverLine: the last line the driver reads has exactly the contract's
// keys, and exactly the declared metrics for each --trace value.
func TestDriverLine(t *testing.T) {
	res := smallRun(t, "seq_write", 1, false)
	for trace, decl := range map[int][]metric{0: driverEndToEnd(), 1: perLayer()} {
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		raw := driverLine(document{Workloads: []result{res}}, trace, true)
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %d: %v in %s", trace, err, raw)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %d: bad verdict fields in %s", trace, raw)
		}
		if len(line.Metrics) != len(decl) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(line.Metrics), len(decl))
		}
		for _, m := range decl {
			got, ok := line.Metrics[m.Name]
			if !ok || got.Value == nil || got.Unit != m.Unit || math.IsNaN(*got.Value) {
				t.Errorf("trace %d: metric %s missing or malformed", trace, m.Name)
			}
		}
	}
}
