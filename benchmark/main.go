// Command benchmark measures the raidii simulator on two clocks: what the
// modelled RAID-II delivers in simulated time, and what running the model
// costs in host time and memory.  See README.md in this directory.
//
//	go run ./benchmark -workload seq_read -seed 1   # one workload, every metric
//	go run ./benchmark -ladder                      # per-layer ladder only
//	go run ./benchmark -all -json out.json          # five workloads and the ladder
//	go run ./benchmark -compare a.json b.json       # apply the bounds
//
// The driver's form is "-workload W -seed N -seconds S -trace 0|1"; the last
// line of its output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// document is what -json writes and -compare reads.
type document struct {
	Workloads []result        `json:"workloads"`
	Ladder    map[string]stat `json:"ladder,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	ladder   bool
	all      bool
	compare  bool
	jsonOut  string
	spans    string
	spec     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload: seq_read, seq_write, degraded_r6, small_ops or cluster_stripe")
	flag.Int64Var(&o.seed, "seed", 1, "seed for data patterns, offsets, stagger and the Zipf trace window")
	flag.Float64Var(&o.seconds, "seconds", 0, "host seconds of measured reps to aim for (0 = five reps)")
	flag.IntVar(&o.trace, "trace", -1, "driver mode: 0 = end-to-end metrics only, 1 = per-layer metrics only (traced rep and ladder)")
	flag.BoolVar(&o.ladder, "ladder", false, "run the per-layer ladder")
	flag.BoolVar(&o.all, "all", false, "run every workload and the ladder")
	flag.BoolVar(&o.compare, "compare", false, "compare two -json files given as arguments; exit 1 on any regression")
	flag.StringVar(&o.jsonOut, "json", "", "write results to this file")
	flag.StringVar(&o.spans, "spans", "", "write the benchmark's host spans to this file")
	flag.BoolVar(&o.spec, "benchmark-json", false, "print the BENCHMARK.json these declarations imply")
	flag.Parse()
	os.Exit(run(o, flag.Args()))
}

// run returns the process's exit status: 0, 1 if any operation, invariant
// or comparison failed, 2 for a usage error.
func run(o options, args []string) int {
	switch {
	case o.spec:
		out, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		fmt.Print(string(out))
		return 0
	case o.compare:
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two files")
			return 2
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}

	var chosen []workload
	for _, w := range workloads {
		if o.all || w.name == o.workload {
			chosen = append(chosen, w)
		}
	}
	if o.workload != "" && len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", o.workload)
		return 2
	}
	if len(chosen) == 0 && !o.ladder {
		flag.Usage()
		return 2
	}

	log := newSpanLog()
	var doc document
	code := 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	for _, w := range chosen {
		cfg := runConfig{seed: o.seed, seconds: o.seconds, traced: o.trace != 0, log: log}
		if o.trace == 1 {
			cfg.reps = 1 // the driver's traced run spends its time on the traced rep and the ladder
		}
		res := runWorkload(w, cfg)
		printResult(os.Stdout, res)
		doc.Workloads = append(doc.Workloads, res)
		if res.Failed > 0 || res.Error != "" {
			fail(fmt.Errorf("%s: %d of %d operations failed: %s", w.name, res.Failed, res.Attempted, res.Error))
		}
	}
	if o.ladder || o.all || o.trace == 1 {
		reps := ladderReps
		if o.trace == 1 {
			reps = 1
		}
		lad, err := runLadder(o.seed, reps, false, log)
		if err != nil {
			fail(fmt.Errorf("ladder: %w", err))
		}
		doc.Ladder = lad
		printLadder(os.Stdout, lad)
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(o.jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fail(err)
		}
	}
	if o.spans != "" {
		if err := log.write(o.spans); err != nil {
			fail(err)
		}
	}
	if o.trace >= 0 && len(chosen) == 1 {
		// The driver reads the last line of standard output.
		fmt.Println(driverLine(doc, o.trace, code == 0))
	}
	return code
}
