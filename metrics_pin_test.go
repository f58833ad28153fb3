package raidii

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// The metrics pin.  Five metered experiments — the file-server trace, the
// cache working-set sweep, the link-flap timeline, the RAID-6 double failure
// and Fig. 8's 1 MB point (whose writer runs ahead of the array and waits for
// segment images: the lfs stage), which between them drive every request
// kind, every stage and every outcome counter — run with a registry and a
// 250 ms sampler attached to each engine, as raidbench -metrics does.  The
// Prometheus text of all of them must equal testdata/metrics_pin.prom, and
// their JSON export, in raidbench -metrics-json's document shape, must equal
// testdata/metrics_pin.json; only the JSON carries the sampled in-flight
// series.  A change to how request time is attributed, or to how either
// exporter renders it, passes unmodified or has moved a number; on a
// mismatch the first differing line is named.
//
// Regenerate (only for a change that is meant to move metrics):
//
//	go test -run TestMetricsPin -update .
var updatePin = flag.Bool("update", false, "rewrite testdata/metrics_pin.{prom,json} from the current code")

func TestMetricsPin(t *testing.T) {
	type run struct {
		label string
		reg   *telemetry.Registry
	}
	var runs []run
	SetProbe(func(label string, e *sim.Engine) {
		reg := telemetry.Attach(e)
		reg.StartSampler(sim.Duration(250 * time.Millisecond))
		runs = append(runs, run{label, reg})
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
	var prom bytes.Buffer
	doc := struct {
		Schema int                    `json:"schema"`
		Runs   []telemetry.JSONExport `json:"runs"`
	}{Schema: telemetry.JSONSchema}
	for _, r := range runs {
		opts := telemetry.ExportOptions{Run: r.label}
		if err := telemetry.WritePrometheus(&prom, r.reg, opts); err != nil {
			t.Fatal(err)
		}
		doc.Runs = append(doc.Runs, telemetry.Export(r.reg, opts))
	}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	comparePin(t, "metrics_pin.prom", prom.Bytes())
	comparePin(t, "metrics_pin.json", append(js, '\n'))
}

// comparePin compares got with testdata/name, or rewrites the file under
// -update, and names the first differing line.
func comparePin(t *testing.T, name string, got []byte) {
	t.Helper()
	pin := filepath.Join("testdata", name)
	if *updatePin {
		if err := os.WriteFile(pin, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pin)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, exp := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range g {
		if i >= len(exp) || g[i] != exp[i] {
			t.Fatalf("metrics differ from %s at line %d:\n got  %s\n want %s", pin, i+1, g[i], strings.Join(exp[min(i, len(exp)):min(i+1, len(exp))], ""))
		}
	}
	t.Fatalf("metrics end at line %d, %s has %d", len(g), pin, len(exp))
}

var (
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"`)
)

// promGrammar returns the first violation of the exposition grammar the
// exporter keeps: every sample is well formed and belongs to the family of
// the # TYPE line before it, and each histogram series' buckets have rising
// le bounds, counts that never fall and a +Inf bucket equal to its _count.
func promGrammar(text string) error {
	var fam, typ string
	type hist struct{ le, count, inf float64 }
	hists := map[string]*hist{}
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if m := typeRe.FindStringSubmatch(line); m != nil {
			fam, typ = m[1], m[2]
			continue
		} else if strings.HasPrefix(line, "# TYPE") {
			return fmt.Errorf("line %d: malformed TYPE %q", i+1, line)
		} else if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", i+1, line)
		}
		v, err := strconv.ParseFloat(m[len(m)-1], 64)
		if err != nil {
			return fmt.Errorf("line %d: malformed value %q", i+1, line)
		}
		suffix, ok := strings.CutPrefix(m[1], fam)
		if !ok || fam == "" || (suffix != "") != (typ == "histogram") ||
			suffix != "" && suffix != "_bucket" && suffix != "_sum" && suffix != "_count" {
			return fmt.Errorf("line %d: %s is not a sample of the last TYPE, %s", i+1, m[1], fam)
		}
		key, le := fam, ""
		for _, l := range labelRe.FindAllStringSubmatch(m[2], -1) {
			if l[1] == "le" {
				le = l[2]
			} else {
				key += "," + l[0]
			}
		}
		h := hists[key]
		switch {
		case suffix == "_bucket" && h == nil:
			h = &hist{le: -1, inf: -1}
			hists[key] = h
			fallthrough
		case suffix == "_bucket":
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil || bound <= h.le || h.inf >= 0 || v < h.count {
				return fmt.Errorf("line %d: bucket bound does not rise or its count falls: %q", i+1, line)
			}
			h.le, h.count = bound, v
			if math.IsInf(bound, 1) {
				h.inf = v
			}
		case suffix == "_count" && (h == nil || h.inf != v):
			return fmt.Errorf("line %d: %s has no +Inf bucket equal to it", i+1, line)
		}
	}
	return nil
}

func readPromPin(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "metrics_pin.prom"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestMetricsPinGrammar holds the pinned exposition to the grammar.
func TestMetricsPinGrammar(t *testing.T) {
	if err := promGrammar(readPromPin(t)); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsPinGrammarRejectsMalformed holds the grammar check to
// rejecting each way an exposition can break it.
func TestMetricsPinGrammarRejectsMalformed(t *testing.T) {
	pin := readPromPin(t)
	const bucket = `raidii_request_duration_ns_bucket{kind="fs-read",le=`
	for _, c := range []struct{ name, old, new, want string }{
		{"falling bucket", bucket + `"8388607",run="fileserver"} 959`, bucket + `"8388607",run="fileserver"} 9`, "falls"},
		{"missing +Inf", bucket + `"+Inf",run="fileserver"} 1047` + "\n", "", "+Inf"},
		{"sample before its TYPE", "# HELP raidii_requests_total ", `raidii_requests_total{kind="x"} 1` + "\n# HELP raidii_requests_total ", "TYPE"},
	} {
		bad := strings.Replace(pin, c.old, c.new, 1)
		if bad == pin {
			t.Fatalf("%s: %q is not in the pin", c.name, c.old)
		}
		if err := promGrammar(bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a rejection for %q", c.name, err, c.want)
		}
	}
}
