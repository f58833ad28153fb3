package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// exposition is what telemetry.WritePrometheus makes of a small registry
// with a counter, a gauge and a three-sample histogram.
func exposition(t *testing.T) string {
	t.Helper()
	reg := telemetry.Attach(sim.New())
	reg.Counter("ops_total", "kind", "read").Add(3)
	reg.Gauge("depth").Set(2)
	h := reg.Histogram("latency_ns", "kind", "read")
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, 3 * time.Millisecond} {
		h.Observe(d)
	}
	var buf bytes.Buffer
	err := telemetry.WritePrometheus(&buf, reg, telemetry.ExportOptions{
		Label:       "unit",
		ConstLabels: []telemetry.Label{{Key: "run", Value: "unit"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// violations checks text as a file and returns what promcheck reports.
func violations(t *testing.T, text string) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.prom")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	errs, err := check(path)
	if err != nil {
		t.Fatal(err)
	}
	return errs
}

func TestAcceptsTelemetryExport(t *testing.T) {
	text := exposition(t)
	for _, want := range []string{"# TYPE latency_ns histogram", `le="+Inf"`, "latency_ns_count{"} {
		if !strings.Contains(text, want) {
			t.Fatalf("export lacks %q, so the rejections below would test nothing:\n%s", want, text)
		}
	}
	if errs := violations(t, text); len(errs) != 0 {
		t.Fatalf("well-formed export rejected:\n%s", strings.Join(errs, "\n"))
	}
}

func TestRejectsMalformedExports(t *testing.T) {
	lines := strings.Split(exposition(t), "\n")
	// edit returns the export with fn applied to the first line that has
	// every one of the given substrings; fn returns the lines to put there.
	edit := func(fn func(line string) []string, has ...string) string {
		out := make([]string, 0, len(lines)+1)
		done := false
	next:
		for _, l := range lines {
			if !done {
				for _, h := range has {
					if !strings.Contains(l, h) {
						out = append(out, l)
						continue next
					}
				}
				done = true
				out = append(out, fn(l)...)
				continue
			}
			out = append(out, l)
		}
		if !done {
			t.Fatalf("no line with %q in the export", has)
		}
		return strings.Join(out, "\n")
	}
	for _, tc := range []struct {
		name, text, want string
	}{
		{
			"non-cumulative bucket run",
			// The +Inf bucket holds all three samples; no finite bucket may
			// hold more.
			edit(func(l string) []string {
				return []string{l[:strings.LastIndex(l, " ")] + " 9"}
			}, "latency_ns_bucket", `le="`),
			"bucket count decreased",
		},
		{
			"missing +Inf bucket",
			edit(func(string) []string { return nil }, "latency_ns_bucket", `le="+Inf"`),
			`no le="+Inf" bucket`,
		},
		{
			"sample outside its TYPE family",
			edit(func(l string) []string {
				return []string{l, `latency_ns{run="unit"} 1`}
			}, "# TYPE latency_ns histogram"),
			"does not belong to histogram family",
		},
	} {
		errs := violations(t, tc.text)
		if len(errs) == 0 {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if all := strings.Join(errs, "\n"); !strings.Contains(all, tc.want) {
			t.Errorf("%s: rejected, but not for %q:\n%s", tc.name, tc.want, all)
		}
	}
}
