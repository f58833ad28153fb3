package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// printMetrics writes one line per declared metric that has a value: name,
// value, unit, and for host-clock metrics the quartiles of the measured reps.
func printMetrics(w io.Writer, decl []metric, vals map[string]stat) {
	for _, m := range decl {
		st, ok := vals[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s", m.Name, st.Value, st.Unit)
		if len(st.Values) > 1 {
			fmt.Fprintf(w, "  q1 %.6g  q3 %.6g  reps %.5g", st.Q1, st.Q3, st.Values)
		}
		if st.N > 0 {
			fmt.Fprintf(w, "  n=%d requests", st.N)
		}
		fmt.Fprintln(w)
	}
}

func printResult(w io.Writer, res result) {
	fmt.Fprintf(w, "== %s  seed %d  %d measured reps  %d operations attempted, %d failed\n",
		res.Workload, res.Seed, res.Reps, res.Attempted, res.Failed)
	fmt.Fprintln(w, " end-to-end (host clock: median of measured reps; sim clock: exact)")
	printMetrics(w, endToEnd, res.Metrics)
	fmt.Fprintln(w, " per-layer (counters, traced rep, host runtime)")
	printMetrics(w, tracedLayer, res.Metrics)
}

func printLadder(w io.Writer, lad map[string]stat) {
	fmt.Fprintln(w, "== ladder (each layer's entry point driven alone by one simulated process)")
	printMetrics(w, ladderLayer, lad)
}

// driverLine renders the one-workload result in the driver's contract: with
// trace 0 every end-to-end metric, with trace 1 every per-layer metric.  ok
// is false if anything in the run failed.
func driverLine(doc document, trace int, ok bool) string {
	res := doc.Workloads[0]
	decl := driverEndToEnd()
	if trace == 1 {
		decl = perLayer()
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{
		Correct:   ok,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]val{},
	}
	for _, m := range decl {
		st, ok := res.Metrics[m.Name]
		if !ok {
			st = doc.Ladder[m.Name] // zero-valued when the workload has no such metric
		}
		out.Metrics[m.Name] = val{Value: st.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return "{}" // cannot happen: the struct holds only numbers and strings
	}
	return string(line)
}
