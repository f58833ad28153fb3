package raidii

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// The metrics pin.  Five metered experiments — the file-server trace, the
// cache working-set sweep, the link-flap timeline, the RAID-6 double failure
// and Fig. 8's 1 MB point (whose writer runs ahead of the array and waits for
// segment images: the lfs stage), which between them drive every request
// kind, every stage and every outcome counter — run with a registry attached
// to each engine, and the Prometheus text of all of them must equal
// testdata/metrics_pin.prom, which was recorded from the code that accounted
// stages through telemetry.StageSpan beside the trace's p.Span, and
// re-recorded twice since: when LFS's read runs began to carry their request
// (the stage times and cache lines of fs-read, reread and client-read moved
// and nothing else did), and when LFS bounded its segment images and kept
// sealed pointer blocks in its metadata cache (every run that seeds files
// through LFS moved; the Fig. 8 point joined then).
// A change to how request time is attributed passes it unmodified or has
// moved a number; on a mismatch the first differing line is named.
//
// Regenerate (only for a change that is meant to move metrics):
//
//	go test -run TestMetricsPin -update .
var updatePin = flag.Bool("update", false, "rewrite testdata/metrics_pin.prom from the current code")

func TestMetricsPin(t *testing.T) {
	type run struct {
		label string
		reg   *telemetry.Registry
	}
	var runs []run
	SetProbe(func(label string, e *sim.Engine) {
		runs = append(runs, run{label, telemetry.Attach(e)})
	})
	defer SetProbe(nil)
	for _, ex := range []func() error{
		func() error { _, err := FileServerTrace(1500); return err },
		func() error { _, err := CacheWorkingSet(8, []int{2, 4, 6, 8, 12, 16, 24}); return err },
		func() error { _, err := NetworkFaultTimeline(); return err },
		func() error { _, err := DoubleFaultTimeline(); return err },
		func() error { _, err := Fig8([]int{1024}); return err },
	} {
		if err := ex(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	for _, r := range runs {
		err := telemetry.WritePrometheus(&buf, r.reg, telemetry.ExportOptions{
			Label:       r.label,
			ConstLabels: []telemetry.Label{{Key: "run", Value: r.label}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pin := filepath.Join("testdata", "metrics_pin.prom")
	if *updatePin {
		if err := os.WriteFile(pin, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pin)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := range got {
		if i >= len(exp) || got[i] != exp[i] {
			t.Fatalf("metrics differ from %s at line %d:\n got  %s\n want %s", pin, i+1, got[i], strings.Join(exp[min(i, len(exp)):min(i+1, len(exp))], ""))
		}
	}
	t.Fatalf("metrics end at line %d, %s has %d", len(got), pin, len(exp))
}
