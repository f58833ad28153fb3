package raidii

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/trace"
)

// TestTraceDeterministic runs the same seeded workload twice on fully
// traced servers and demands byte-identical Chrome trace JSON and
// utilization tables.  This is the PR-level acceptance gate for the
// observability layer: hooks may observe the simulation, never perturb it,
// and their output must be a pure function of the run.
func TestTraceDeterministic(t *testing.T) {
	run := func() (string, string) {
		srv, err := NewServer(WithDisksPerString(1))
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.Attach(srv.Sys().Eng, trace.Config{Label: "det", Pid: 1, Events: true})
		_, err = srv.Simulate(func(task *Task) error {
			if err := task.FormatFS(); err != nil {
				return err
			}
			f, err := task.Board(0).Create("/wl")
			if err != nil {
				return err
			}
			const fileSize = 2 << 20
			if _, err := f.Write(0, make([]byte, fileSize)); err != nil {
				return err
			}
			if err := task.Sync(); err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 25; i++ {
				n := 4096 * (1 + rng.Intn(8))
				off := rng.Int63n(fileSize - int64(n))
				if rng.Intn(2) == 0 {
					if _, _, err := f.Read(off, n); err != nil {
						return err
					}
				} else if _, err := f.Write(off, make([]byte, n)); err != nil {
					return err
				}
			}
			return task.Sync()
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return buf.String(), rec.Table(0)
	}

	json1, table1 := run()
	json2, table2 := run()
	if json1 != json2 {
		t.Error("Chrome trace JSON differs between identical runs")
	}
	if table1 != table2 {
		t.Errorf("utilization tables differ between identical runs:\nfirst:\n%s\nsecond:\n%s", table1, table2)
	}
	if !json.Valid([]byte(json1)) {
		t.Error("trace output is not valid JSON")
	}
	if len(table1) == 0 {
		t.Error("utilization table is empty")
	}
}

// TestFaultTraceDeterministic runs the same scripted fault plan — a
// string stall followed by a whole-disk failure under streaming reads —
// twice on fully traced servers and demands byte-identical Chrome trace
// JSON.  Fault injection, SCSI retries/timeouts, escalation, and degraded
// reads are all simulated events, so an identical plan must replay
// identically.
func TestFaultTraceDeterministic(t *testing.T) {
	run := func() string {
		plan := FaultPlan{}.
			StringStallAt(100*time.Millisecond, 0, 0, 50*time.Millisecond).
			DiskFailAt(300*time.Millisecond, 0, 3)
		srv, err := NewServer(WithDisksPerString(1), WithFaultPlan(plan))
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.Attach(srv.Sys().Eng, trace.Config{Label: "fault-det", Pid: 1, Events: true})
		_, err = srv.Simulate(func(task *Task) error {
			bd := task.Board(0)
			for i := 0; i < 10; i++ {
				if err := bd.HardwareRead(int64(i)*(1<<20), 1<<20); err != nil {
					return err
				}
			}
			if !bd.DiskFailed(3) {
				t.Error("scripted failure did not fire during the traced run")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	json1 := run()
	json2 := run()
	if json1 != json2 {
		t.Error("fault-plan trace JSON differs between identical runs")
	}
	if !strings.Contains(json1, `"disk-fail"`) {
		t.Error("trace does not record the scripted fault event")
	}
	if !strings.Contains(json1, "escalate:dev3") {
		t.Error("trace does not record the escalation to degraded mode")
	}
}

// TestProbeObservesExperimentEngines checks the SetProbe wiring: running an
// experiment with a probe installed attaches recorders with stable labels
// and byte-identical utilization tables across repeated runs.
func TestProbeObservesExperimentEngines(t *testing.T) {
	run := func() (labels, tables []string) {
		var recs []*trace.Recorder
		SetProbe(func(label string, e *sim.Engine) {
			recs = append(recs, trace.Attach(e, trace.Config{Label: label}))
		})
		defer SetProbe(nil)
		if _, err := Fig7([]int{1, 2}); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			labels = append(labels, rec.Label())
			tables = append(tables, rec.Table(0))
		}
		return labels, tables
	}
	labels1, tables1 := run()
	labels2, tables2 := run()
	if len(labels1) == 0 {
		t.Fatal("probe never invoked")
	}
	if len(labels1) != len(labels2) {
		t.Fatalf("probe invocation count differs: %d vs %d", len(labels1), len(labels2))
	}
	for i := range labels1 {
		if labels1[i] != labels2[i] {
			t.Errorf("probe label %d differs: %q vs %q", i, labels1[i], labels2[i])
		}
		if tables1[i] != tables2[i] {
			t.Errorf("utilization table for %s differs between identical runs", labels1[i])
		}
	}
}

// TestSpanCategoriesDeclared holds model code to the one vocabulary: every
// category a span is opened with, across the experiments that between them
// reach every layer, fault path and the NVRAM log, is a row of telemetry's
// category table — so a misspelt layer name fails here instead of silently
// accruing to no stage — the layer-entry spans are all there, and every
// stage in the table is opened by some run: a stage no model code reaches
// is a row to delete.
func TestSpanCategoriesDeclared(t *testing.T) {
	var recs []*trace.Recorder
	SetProbe(func(label string, e *sim.Engine) {
		recs = append(recs, trace.Attach(e, trace.Config{Label: label}))
	})
	defer SetProbe(nil)
	for _, ex := range []func() error{
		func() error { _, err := FileServerTrace(300); return err },
		func() error { _, err := NetworkFaultTimeline(); return err },
		func() error { _, err := DoubleFaultTimeline(); return err },
		func() error { _, err := SmallWriteLatency(); return err },
		func() error { _, err := Fig5([]int{256}); return err },
	} {
		if err := ex(); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, rec := range recs {
		for _, sc := range rec.SpanCounts() {
			if !telemetry.KnownCategory(sc.Cat) {
				t.Errorf("%s: span %s/%s: category not in telemetry's table", rec.Label(), sc.Cat, sc.Name)
			}
			seen[sc.Cat] = true
			seen[sc.Cat+"/"+sc.Name] = true
		}
	}
	for _, stage := range telemetry.Stages() {
		if !seen[stage] {
			t.Errorf("stage %s: no run opened a span of its category", stage)
		}
	}
	for _, kind := range []string{
		"disk/read", "disk/write", "cache/read", "cache/write", "net/hippi-send",
		"raid/read", "raid/write", "raid/write-streaming", "scsi/read", "scsi/write",
	} {
		if !seen[kind] {
			t.Errorf("no %s span recorded", kind)
		}
	}
}
