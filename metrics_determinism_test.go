package raidii

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"raidii/internal/telemetry"
)

// runMeteredWorkload runs one seeded mixed read/write workload on a fresh
// server with telemetry (and a gauge sampler) attached, and returns both
// exports.
func runMeteredWorkload(t *testing.T) (prom, js string) {
	t.Helper()
	srv, err := NewServer(WithDisksPerString(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.Attach(srv.Sys().Eng)
	reg.StartSampler(10 * time.Millisecond)
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
	opts := telemetry.ExportOptions{Run: "det"}
	var pb bytes.Buffer
	if err := telemetry.WritePrometheus(&pb, reg, opts); err != nil {
		t.Fatal(err)
	}
	jb, err := json.MarshalIndent(telemetry.Export(reg, opts), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return pb.String(), string(jb)
}

// TestMetricsDeterministic runs the same seeded workload twice on metered
// servers and demands byte-identical Prometheus text and JSON exports —
// the PR-level acceptance gate for the telemetry layer: metrics observe
// the simulation, never perturb it, and their serialization is a pure
// function of the run (no map-order dependence, no wall clock).
func TestMetricsDeterministic(t *testing.T) {
	prom1, json1 := runMeteredWorkload(t)
	prom2, json2 := runMeteredWorkload(t)
	if prom1 != prom2 {
		t.Error("Prometheus text differs between identical runs")
	}
	if json1 != json2 {
		t.Error("JSON export differs between identical runs")
	}
	if !json.Valid([]byte(json1)) {
		t.Error("JSON export is not valid JSON")
	}
	// The workload drove real requests: the fs-read/fs-write kinds must
	// appear with their stage breakdowns and latency histograms.
	for _, want := range []string{
		`raidii_requests_total{kind="fs-read",run="det"}`,
		`raidii_requests_total{kind="fs-write",run="det"}`,
		`raidii_request_duration_ns_bucket{kind="fs-read",le=`,
		`raidii_request_stage_ns_total{kind="fs-read",run="det",stage="disk"}`,
		`raidii_requests_inflight{run="det"} 0`,
		"# sim_time_ns ",
	} {
		if !strings.Contains(prom1, want) {
			t.Errorf("Prometheus export missing %q", want)
		}
	}
	if !strings.Contains(json1, `"raidii_requests_inflight"`) {
		t.Error("JSON export missing the sampled inflight gauge series")
	}
}

// TestMetricsSummaryMatchesExport cross-checks the Summary quantiles used
// by experiment reports against the histogram the exporter writes: both
// views must describe the same data.
func TestMetricsSummaryMatchesExport(t *testing.T) {
	prom, _ := runMeteredWorkload(t)
	srv, err := NewServer(WithDisksPerString(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.Attach(srv.Sys().Eng)
	_, err = srv.Simulate(func(task *Task) error {
		if err := task.FormatFS(); err != nil {
			return err
		}
		f, err := task.Board(0).Create("/x")
		if err != nil {
			return err
		}
		if _, err := f.Write(0, make([]byte, 1<<20)); err != nil {
			return err
		}
		// Sync so the reads come off the array (with raid/scsi/disk stage
		// time) instead of the still-buffered segment.
		if err := task.Sync(); err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			if _, _, err := f.Read(int64(i)<<17, 1<<17); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Summary("fs-read")
	if s.N != 8 {
		t.Fatalf("fs-read N = %d, want 8", s.N)
	}
	if s.P50 <= 0 || s.P99 < s.P50 || s.P999 < s.P99 || s.Max < s.P999 {
		t.Fatalf("quantiles not ordered: p50=%v p99=%v p999=%v max=%v",
			s.P50, s.P99, s.P999, s.Max)
	}
	if len(s.Stages) == 0 {
		t.Fatal("fs-read summary has no stage breakdown")
	}
	// And the earlier exported run must contain the histogram's count line.
	if !strings.Contains(prom, "raidii_request_duration_ns_count{") {
		t.Fatal("export missing histogram _count")
	}
}
