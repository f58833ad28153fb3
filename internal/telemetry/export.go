package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// This file implements the two metric exporters.  Both walk the families
// table below and, within a family, the kinds by name and each kind's
// stages by name — never raw map order — and every exported value is an
// integer (a count, a gauge of requests, or nanoseconds), so identical runs
// export byte-identical documents.  The regression tests at
// the repo root (metrics_pin_test.go, metrics_determinism_test.go) hold them
// to that.

// ExportOptions adjusts an export.
type ExportOptions struct {
	// Run names the exported run.  It becomes the JSON document's label
	// field and, in the Prometheus text, a leading comment and a run label
	// on every series, so the sections of several runs stay distinct when
	// concatenated into one exposition.
	Run string
}

// family is one exported metric family.
type family struct {
	name, typ, help string
	count           func(*kindStats) uint64 // a per-kind counter's value; nil for the rest
}

// families is every exported family, in export order: the counters by
// name, then the gauge, then the histogram.
var families = [...]family{
	{"raidii_request_cache_hits_total", "counter", "Cache line hits observed by requests.", func(s *kindStats) uint64 { return s.hits }},
	{"raidii_request_cache_misses_total", "counter", "Cache line misses observed by requests.", func(s *kindStats) uint64 { return s.misses }},
	{"raidii_request_retries_total", "counter", "Total retry attempts across requests.", func(s *kindStats) uint64 { return s.retries }},
	{"raidii_request_stage_ns_total", "counter", "Cumulative exclusive per-stage time in nanoseconds.", nil},
	{"raidii_requests_degraded_total", "counter", "Requests served over a degraded (reconstruct) path.", func(s *kindStats) uint64 { return s.degraded }},
	{"raidii_requests_failed_total", "counter", "Requests that completed with an error.", func(s *kindStats) uint64 { return s.failed }},
	{"raidii_requests_retried_total", "counter", "Requests that needed at least one retry.", func(s *kindStats) uint64 { return s.retried }},
	{"raidii_requests_shed_total", "counter", "Requests refused at least once by admission control.", func(s *kindStats) uint64 { return s.shed }},
	{"raidii_requests_total", "counter", "Completed requests by kind.", func(s *kindStats) uint64 { return s.duration.N() }},
	{"raidii_requests_inflight", "gauge", "Requests currently in flight.", nil},
	{"raidii_request_duration_ns", "histogram", "End-to-end request latency in nanoseconds.", nil},
}

// stageNames are the stage labels in the order a kind's stage series export.
var stageNames = slices.Sorted(slices.Values(categories[:numStages]))

// walk calls fn for every series that exists, in export order.  A counter
// series exists once it is nonzero, a kind's histogram once the kind has
// ended a request, and the gauge once any request has begun.  kind and stage
// are empty where the family has no such label; v is a counter's or the
// gauge's value, h the histogram.
func (r *Registry) walk(fn func(f *family, kind, stage string, v uint64, h *Histogram)) {
	kinds := slices.Sorted(maps.Keys(r.kinds))
	for i := range families {
		f := &families[i]
		if f.typ == "gauge" {
			if r.begun {
				fn(f, "", "", r.inflight, nil)
			}
			continue
		}
		for _, kind := range kinds {
			s := r.kinds[kind]
			switch {
			case f.typ == "histogram":
				fn(f, kind, "", 0, &s.duration)
			case f.count == nil: // the stage counter: one series per stage
				for _, stage := range stageNames {
					if d := s.stages[stageOf(stage)]; d > 0 {
						fn(f, kind, stage, uint64(d), nil)
					}
				}
			default:
				if v := f.count(s); v > 0 {
					fn(f, kind, "", v, nil)
				}
			}
		}
	}
}

// labelBlock renders {k="v",...} for a sample line, keys in order and empty
// values left out; it is empty when every value is.
func labelBlock(kind, le, run, stage string) string {
	var pairs []string
	for _, l := range [...][2]string{{"kind", kind}, {"le", le}, {"run", run}, {"stage", stage}} {
		if l[1] != "" {
			pairs = append(pairs, l[0]+`="`+l[1]+`"`)
		}
	}
	if pairs == nil {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// WritePrometheus writes the registry in Prometheus text exposition format
// (version 0.0.4).  Durations are integer nanoseconds — histogram `le`
// bounds, `_sum`s and stage counters all carry the _ns suffix in their
// metric names, so no float formatting enters the output path for them.
func WritePrometheus(w io.Writer, r *Registry, opts ExportOptions) error {
	bw := bufio.NewWriter(w)
	// bufio errors are sticky: every write after a failure is a no-op and
	// the final Flush reports the first error.
	if opts.Run != "" {
		fmt.Fprintf(bw, "# raidii telemetry: %s\n", opts.Run)
	}
	fmt.Fprintf(bw, "# sim_time_ns %d\n", int64(r.eng.Now()))
	var last *family
	r.walk(func(f *family, kind, stage string, v uint64, h *Histogram) {
		if f != last {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
			last = f
		}
		switch f.typ {
		case "counter", "gauge":
			fmt.Fprintf(bw, "%s%s %d\n", f.name, labelBlock(kind, "", opts.Run, stage), v)
		case "histogram":
			for _, b := range h.Buckets() {
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelBlock(kind, strconv.FormatInt(b.LE, 10), opts.Run, ""), b.Count)
			}
			fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelBlock(kind, "+Inf", opts.Run, ""), h.count)
			fmt.Fprintf(bw, "%s_sum%s %d\n", f.name, labelBlock(kind, "", opts.Run, ""), h.sum)
			fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labelBlock(kind, "", opts.Run, ""), h.count)
		}
	})
	return bw.Flush()
}

// JSONSchema is bumped whenever the JSON export shape changes
// incompatibly.
const JSONSchema = 1

// JSONLabels is a label set in the JSON export; encoding/json marshals map
// keys sorted, keeping the document deterministic.
type JSONLabels map[string]string

// JSONCounter is one exported counter series.
type JSONCounter struct {
	Name   string     `json:"name"`
	Labels JSONLabels `json:"labels,omitempty"`
	Value  uint64     `json:"value"`
}

// JSONGauge is one exported gauge series.
type JSONGauge struct {
	Name   string     `json:"name"`
	Labels JSONLabels `json:"labels,omitempty"`
	Value  float64    `json:"value"`
}

// JSONBucket is one cumulative histogram bucket (<= LeNs nanoseconds).
type JSONBucket struct {
	LeNs  int64  `json:"leNs"`
	Count uint64 `json:"count"`
}

// JSONHistogram is one exported histogram series, with its tail quantiles
// precomputed from the buckets.
type JSONHistogram struct {
	Name    string       `json:"name"`
	Labels  JSONLabels   `json:"labels,omitempty"`
	Count   uint64       `json:"count"`
	SumNs   int64        `json:"sumNs"`
	MinNs   int64        `json:"minNs"`
	MaxNs   int64        `json:"maxNs"`
	P50Ns   int64        `json:"p50Ns"`
	P99Ns   int64        `json:"p99Ns"`
	P999Ns  int64        `json:"p999Ns"`
	Buckets []JSONBucket `json:"buckets"`
}

// JSONPoint is one time-series sample.
type JSONPoint struct {
	AtNs  int64   `json:"atNs"`
	Value float64 `json:"value"`
}

// JSONSeries is one sampled time series.
type JSONSeries struct {
	Name   string      `json:"name"`
	Points []JSONPoint `json:"points"`
}

// JSONExport is the versioned JSON export document for one registry.
type JSONExport struct {
	Schema     int             `json:"schema"`
	Label      string          `json:"label,omitempty"`
	SimTimeNs  int64           `json:"simTimeNs"`
	IntervalNs int64           `json:"samplerIntervalNs,omitempty"`
	Counters   []JSONCounter   `json:"counters"`
	Gauges     []JSONGauge     `json:"gauges"`
	Histograms []JSONHistogram `json:"histograms"`
	Series     []JSONSeries    `json:"series,omitempty"`
}

// Export builds the registry's JSON document.  The run is the document's
// label, not a label of its series.  The sampled in-flight gauge is the one
// time series; its points run to the last boundary at or before now.
func Export(r *Registry, opts ExportOptions) JSONExport {
	r.sample(r.eng.Now())
	out := JSONExport{
		Schema:     JSONSchema,
		Label:      opts.Run,
		SimTimeNs:  int64(r.eng.Now()),
		Counters:   []JSONCounter{},
		Gauges:     []JSONGauge{},
		Histograms: []JSONHistogram{},
	}
	r.walk(func(f *family, kind, stage string, v uint64, h *Histogram) {
		var labels JSONLabels
		if kind != "" {
			labels = JSONLabels{"kind": kind}
			if stage != "" {
				labels["stage"] = stage
			}
		}
		switch f.typ {
		case "counter":
			out.Counters = append(out.Counters, JSONCounter{Name: f.name, Labels: labels, Value: v})
		case "gauge":
			out.Gauges = append(out.Gauges, JSONGauge{Name: f.name, Value: float64(v)})
			if s := r.sampler; s != nil && len(s.points) > 0 {
				out.Series = []JSONSeries{{Name: f.name, Points: s.points}}
			}
		case "histogram":
			jh := JSONHistogram{
				Name:    f.name,
				Labels:  labels,
				Count:   h.count,
				SumNs:   h.sum,
				MinNs:   int64(h.Min()),
				MaxNs:   int64(h.Max()),
				P50Ns:   int64(h.Quantile(0.50)),
				P99Ns:   int64(h.Quantile(0.99)),
				P999Ns:  int64(h.Quantile(0.999)),
				Buckets: []JSONBucket{},
			}
			for _, b := range h.Buckets() {
				jh.Buckets = append(jh.Buckets, JSONBucket{LeNs: b.LE, Count: b.Count})
			}
			out.Histograms = append(out.Histograms, jh)
		}
	})
	if s := r.sampler; s != nil {
		out.IntervalNs = int64(s.interval)
	}
	return out
}
