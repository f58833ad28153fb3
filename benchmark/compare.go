package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare, per (metric, workload).
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // the median is worse by more than the bound
	verdictUnresolved = "unresolved" // the spread is wider than the bound and the runs overlap
)

// setupFloor keeps a few milliseconds of set-up from reading as a
// regression: set_up may worsen by its bound or by this much, whichever is
// more.
const setupFloor = 0.05 // seconds

// judge applies the choosing-metrics rule to one metric measured on a
// baseline (a) and a candidate (b).
func judge(m metric, a, b stat, sameSeed bool) string {
	if m.exact && sameSeed {
		// A simulated number: a change to the simulator must leave it alone.
		if diff := math.Abs(a.Value - b.Value); diff > 1e-9*math.Max(math.Abs(a.Value), math.Abs(b.Value)) {
			return verdictRegressed
		}
		return verdictOK
	}
	if m.Bound == 0 || a.Value == 0 {
		return verdictOK // nothing to hold it to
	}
	sign := 1.0
	if m.Better == higher {
		sign = -1
	}
	allowed := m.Bound * math.Abs(a.Value)
	if m.Name == "setup_s" {
		allowed = math.Max(allowed, setupFloor)
	}
	spread := math.Max(a.Q3-a.Q1, b.Q3-b.Q1)
	if spread > allowed && overlap(a.Values, b.Values) {
		return verdictUnresolved
	}
	if sign*(b.Value-a.Value) > allowed {
		return verdictRegressed
	}
	return verdictOK
}

// overlap reports whether the two sets of runs interleave: neither lies
// wholly on one side of the other.
func overlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	loA, hiA := extent(a)
	loB, hiB := extent(b)
	return loA <= hiB && loB <= hiA
}

// extent returns the least and greatest of v.
func extent(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func readDocument(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians and
// quartiles and a verdict, then the per-layer simulated numbers that moved.
// It returns 1 if anything regressed, 2 if the files cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readDocument(pathA)
	if err == nil {
		var b document
		if b, err = readDocument(pathB); err == nil {
			return compareDocs(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark: -compare:", err)
	return 2
}

func compareDocs(w io.Writer, a, b document) int {
	regressed := 0
	row := func(scope string, m metric, sa, sb stat, sameSeed bool) {
		v := judge(m, sa, sb, sameSeed)
		if v == verdictRegressed {
			regressed++
		}
		fmt.Fprintf(w, "%-15s %-16s %12.6g [%.6g %.6g] -> %12.6g [%.6g %.6g] %-6s %s\n",
			scope, m.Name, sa.Value, sa.Q1, sa.Q3, sb.Value, sb.Q1, sb.Q3, m.Unit, v)
	}
	// moved lists exact per-layer numbers that differ: not a verdict (a good
	// optimisation may execute fewer events), but never silent.
	moved := func(scope string, decl []metric, va, vb map[string]stat) {
		for _, m := range decl {
			sa, okA := va[m.Name]
			sb, okB := vb[m.Name]
			if m.exact && okA && okB && sa.Value != sb.Value {
				fmt.Fprintf(w, "%-15s %-36s %.9g -> %.9g %s  (moved)\n", scope, m.Name, sa.Value, sb.Value, m.Unit)
			}
		}
	}
	byName := map[string]result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%-15s missing from the second file\n", ra.Workload)
			regressed++
			continue
		}
		sameSeed := ra.Seed == rb.Seed
		for _, m := range endToEnd {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if okA && okB {
				row(ra.Workload, m, sa, sb, sameSeed)
			}
		}
		if sameSeed {
			moved(ra.Workload, tracedLayer, ra.Metrics, rb.Metrics)
		}
	}
	moved("ladder", ladderLayer, a.Ladder, b.Ladder)
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}
