package raidii

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"raidii/internal/telemetry"
	"raidii/internal/trace"
)

// runFleetFaultWorkload drives one seeded multi-server workload — striped
// writes and reads across a three-host cluster with a scripted whole-server
// outage in the middle — on a fully traced and metered fleet, and returns
// the Chrome trace JSON, the utilization table, and both telemetry exports.
// The workload itself asserts the fault semantics: reads reconstruct
// through cross-server parity while the host is down, a degraded write
// leaves stale fragments, and RebuildServer repairs them after the host
// returns.
func runFleetFaultWorkload(t *testing.T) (chrome, table, prom, telemJSON string) {
	t.Helper()
	const (
		victim = 1
		downAt = 1 * time.Second
		upAt   = 1500 * time.Millisecond
	)
	plan := FaultPlan{}.
		ServerDownAt(downAt, victim).
		ServerUpAt(upAt, victim)
	cl, err := NewCluster(Fig8Geometry(),
		WithServers(3),
		WithStripeFragmentKB(256),
		WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.Attach(cl.Fleet().Eng, trace.Config{Label: "fleet-det", Pid: 1, Events: true})
	reg := telemetry.Attach(cl.Fleet().Eng)

	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i*131 + 7)
	}
	verify := func(what string, got []byte, off int64) {
		if !bytes.Equal(got, data[off:off+int64(len(got))]) {
			t.Errorf("%s at %d returned wrong bytes", what, off)
		}
	}

	_, err = cl.Simulate(func(task *ClusterTask) error {
		if err := task.FormatFS(); err != nil {
			return err
		}
		f, err := task.Create("det")
		if err != nil {
			return err
		}
		if _, err := f.Write(0, data); err != nil {
			return err
		}
		if err := task.Sync(); err != nil {
			return err
		}
		if task.Elapsed() >= downAt {
			t.Errorf("setup overran the scripted outage window: %v", task.Elapsed())
		}
		got, _, err := f.Read(0, 1<<20)
		if err != nil {
			return err
		}
		verify("pre-fault read", got, 0)

		// Advance to mid-outage: the host is dead, reads reconstruct the
		// victim's fragments from the survivors and parity, and a write
		// (same bytes, so verification stays valid) goes degraded.
		if d := downAt + (upAt-downAt)/2 - task.Elapsed(); d > 0 {
			task.Wait(d)
		}
		if !task.ServerDown(victim) {
			t.Error("scripted ServerDownAt did not fire")
		}
		got, _, err = f.Read(1<<20, 1<<20)
		if err != nil {
			return err
		}
		verify("degraded read", got, 1<<20)
		sb, err := task.StripeBytes()
		if err != nil {
			return err
		}
		if _, err := f.Write(0, data[:sb]); err != nil {
			return err
		}

		// Past the restore: the host answers again, but the fragment the
		// degraded write could not place stays stale until rebuilt.
		if d := upAt + 50*time.Millisecond - task.Elapsed(); d > 0 {
			task.Wait(d)
		}
		if task.ServerDown(victim) {
			t.Error("scripted ServerUpAt did not fire")
		}
		stale, err := task.StaleFragments(victim)
		if err != nil {
			return err
		}
		if stale == 0 {
			t.Error("degraded write left no stale fragments")
		}
		rebuilt, err := task.RebuildServer(victim)
		if err != nil {
			return err
		}
		if rebuilt != stale {
			t.Errorf("rebuilt %d fragments, want %d", rebuilt, stale)
		}
		got, _, err = f.Read(0, len(data))
		if err != nil {
			return err
		}
		verify("post-rebuild read", got, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var cb bytes.Buffer
	if err := trace.WriteChrome(&cb, rec); err != nil {
		t.Fatal(err)
	}
	opts := telemetry.ExportOptions{Run: "fleet-det"}
	var pb bytes.Buffer
	if err := telemetry.WritePrometheus(&pb, reg, opts); err != nil {
		t.Fatal(err)
	}
	jb, err := json.MarshalIndent(telemetry.Export(reg, opts), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return cb.String(), rec.Table(0), pb.String(), string(jb)
}

// TestFleetDeterministic runs the same scripted multi-server workload —
// including a whole-host kill and restore — twice and demands byte-identical
// traces and telemetry exports.  Fleet placement is pure arithmetic and all
// cross-server traffic is simulated events, so an identical plan must
// replay identically; this is the PR-level acceptance gate for the cluster
// layer.
func TestFleetDeterministic(t *testing.T) {
	chrome1, table1, prom1, json1 := runFleetFaultWorkload(t)
	chrome2, table2, prom2, json2 := runFleetFaultWorkload(t)
	if chrome1 != chrome2 {
		t.Error("Chrome trace JSON differs between identical fleet runs")
	}
	if table1 != table2 {
		t.Errorf("utilization tables differ between identical fleet runs:\nfirst:\n%s\nsecond:\n%s", table1, table2)
	}
	if prom1 != prom2 {
		t.Error("Prometheus export differs between identical fleet runs")
	}
	if json1 != json2 {
		t.Error("JSON export differs between identical fleet runs")
	}
	if !json.Valid([]byte(chrome1)) {
		t.Error("trace output is not valid JSON")
	}
	if !json.Valid([]byte(json1)) {
		t.Error("telemetry JSON export is not valid JSON")
	}
	// The scripted whole-server outage must be visible in the trace ...
	for _, want := range []string{`"server-down"`, `"server-up"`} {
		if !strings.Contains(chrome1, want) {
			t.Errorf("trace does not record the scripted %s event", want)
		}
	}
	// ... and every host must appear with its own resource labels.
	for _, srv := range []string{"s0-", "s1-", "s2-"} {
		if !strings.Contains(table1, srv) {
			t.Errorf("utilization table has no resources for host %q", srv)
		}
	}
}
