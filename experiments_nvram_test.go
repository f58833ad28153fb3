package raidii

import (
	"bytes"
	"reflect"
	"testing"

	"raidii/internal/sim"
	"raidii/internal/trace"
)

// tracedRun executes fn with full event tracing attached to every engine
// it creates and returns the combined Chrome trace JSON.
func tracedRun(t *testing.T, fn func() error) string {
	t.Helper()
	var recs []*trace.Recorder
	SetProbe(func(label string, e *sim.Engine) {
		recs = append(recs, trace.Attach(e, trace.Config{Label: label, Pid: len(recs) + 1, Events: true}))
	})
	defer SetProbe(nil)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, recs...); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSmallWriteLatencyExperiment: the staged machine must beat the
// synchronous one by a wide margin without losing a byte, and the whole
// experiment — results and full event trace — must be deterministic.
func TestSmallWriteLatencyExperiment(t *testing.T) {
	var r1, r2 SmallWriteLatencyResult
	var err error
	trace1 := tracedRun(t, func() error { r1, err = SmallWriteLatency(); return err })
	trace2 := tracedRun(t, func() error { r2, err = SmallWriteLatency(); return err })
	if !reflect.DeepEqual(r1, r2) {
		t.Error("small-write results differ between identical runs")
	}
	if trace1 != trace2 {
		t.Error("small-write trace JSON differs between identical runs")
	}
	if r1.Staged.N != uint64(r1.Ops) || r1.Unstaged.N != uint64(r1.Ops) {
		t.Fatalf("latency samples %d/%d, want %d each", r1.Staged.N, r1.Unstaged.N, r1.Ops)
	}
	// The point of the battery: an NVRAM ack costs crossbar DRAM time and a
	// commit into the open segment, not a segment seal.  The 1 MB region
	// holds one segment image, so a write that finds it full waits for its
	// seal; even so the staged tail must undercut the sync median.
	if r1.Staged.P999 >= r1.Unstaged.P50 {
		t.Errorf("staged p999 %v does not undercut unstaged p50 %v",
			r1.Staged.P999, r1.Unstaged.P50)
	}
	if r1.Waited == 0 {
		t.Error("no write waited for the region's one image: the experiment no longer shows a full region")
	}
}

// TestDoubleFaultTimelineExperiment: two overlapping failures on the
// RAID-6 board must be served correctly throughout, recover at least 90%
// of healthy bandwidth after both rebuilds, and replay byte-identically.
func TestDoubleFaultTimelineExperiment(t *testing.T) {
	var r1, r2 DoubleFaultTimelineResult
	var err error
	trace1 := tracedRun(t, func() error { r1, err = DoubleFaultTimeline(); return err })
	trace2 := tracedRun(t, func() error { r2, err = DoubleFaultTimeline(); return err })
	if !reflect.DeepEqual(r1, r2) {
		t.Error("double-fault results differ between identical runs")
	}
	if trace1 != trace2 {
		t.Error("double-fault trace JSON differs between identical runs")
	}
	if !r1.DataIntact {
		t.Fatal("data not intact across the double failure")
	}
	if r1.DegradedReads == 0 {
		t.Error("no degraded reads recorded across two disk failures")
	}
	if r1.DoubleDegradedMBps >= r1.HealthyMBps {
		t.Errorf("double-degraded bandwidth %.1f MB/s not below healthy %.1f MB/s",
			r1.DoubleDegradedMBps, r1.HealthyMBps)
	}
	if r1.RecoveredFrac < 0.9 {
		t.Errorf("recovered %.0f%% of healthy bandwidth, want >= 90%%", r1.RecoveredFrac*100)
	}
	if r1.Fig == nil || r1.Fig.Render() != r2.Fig.Render() {
		t.Error("timeline figure differs between identical runs")
	}
}
