package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Run shape: one warm-up rep, then measured reps with tracing off, then
// (unless the driver asked for end-to-end numbers only) one traced rep.
// Every rep assembles a fresh machine from the same seed.
const (
	minReps = 3
	maxReps = 5
)

// runConfig is how one workload is run.
type runConfig struct {
	seed    int64
	seconds float64 // host seconds of measured reps to aim for; 0 runs maxReps
	traced  bool    // finish with a traced rep
	reps    int     // fixed count of measured reps when > 0 (the driver's traced run, tests)
	small   bool
	log     *spanLog
}

// stat is one metric's value: exact, or the median and quartiles of the
// measured reps.
type stat struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"` // the median for host-clock metrics
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values,omitempty"`
	N      int       `json:"n,omitempty"` // request count behind a percentile
}

// result is one workload's run.
type result struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Reps      int             `json:"reps"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Error     string          `json:"error,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
}

// quartiles returns the first quartile, median and third quartile of vals
// the way Python's statistics.quantiles(vals, n=4) and statistics.median do.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64{}, vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return at(1), med, at(3)
}

func hostStat(unit string, vals []float64) stat {
	q1, med, q3 := quartiles(vals)
	return stat{Unit: unit, Value: med, Q1: q1, Q3: q3, Values: vals}
}

// sameExact reports the first simulated-clock metric or counter on which
// two reps of one seed disagree.
func sameExact(a, b map[string]float64) error {
	for _, k := range sortedKeys(a) {
		if bv, ok := b[k]; !ok || math.Float64bits(a[k]) != math.Float64bits(bv) {
			return fmt.Errorf("%s differs between reps of one seed: %v vs %v", k, a[k], b[k])
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("reps of one seed report %d vs %d exact metrics", len(a), len(b))
	}
	return nil
}

// runWorkload executes the run shape for one workload and condenses it.
func runWorkload(w workload, cfg runConfig) result {
	res := result{Workload: w.name, Seed: cfg.seed, Metrics: map[string]stat{}}
	root := cfg.log.begin(-1, "run:"+w.name, 0)
	defer cfg.log.end(root)

	var first map[string]float64 // the warm-up rep's exact metrics: every later rep must match
	one := func(name string, traced, final bool) (sample, bool) {
		quiesce()
		r := &rep{
			seed: cfg.seed, small: cfg.small, traced: traced, final: final, log: cfg.log,
			rng: rand.New(rand.NewSource(cfg.seed)),
		}
		r.parent = cfg.log.begin(root, name, 0)
		r.calib0 = calibrate()
		// Set-up starts here: generating the inputs from the seed is part of it.
		r.phase = cfg.log.begin(r.parent, "setup", 0)
		r.start = hostNow()
		r.or = newOracle(cfg.seed)
		err := w.run(r)
		if r.eng != nil {
			// Idle process shells park on the engine for good; without this
			// every rep's machine would stay reachable from their stacks.
			r.eng.Shutdown()
		}
		cfg.log.end(r.parent)
		res.Attempted += r.attempted
		res.Failed += r.failed
		if err == nil {
			err = r.firstErr
		}
		if err == nil && r.out.exact == nil {
			err = fmt.Errorf("rep never reached its timed phase")
		}
		if err == nil {
			// The free determinism check: identical seeds, identical machines.
			res.Attempted++
			if first == nil {
				first = r.out.exact
			} else if err = sameExact(first, r.out.exact); err != nil {
				res.Failed++
			}
		}
		if err != nil && res.Error == "" {
			res.Error = fmt.Sprintf("%s: %v", name, err)
		}
		return r.out, err == nil
	}

	if _, ok := one("warm-up", false, false); !ok {
		return res
	}
	var measured []sample
	var used float64
	for k := 1; ; k++ {
		last := k == maxReps
		if cfg.reps > 0 {
			last = k == cfg.reps
		} else if k >= minReps && cfg.seconds > 0 {
			last = last || used+used/float64(k-1) > cfg.seconds
		}
		s, ok := one(fmt.Sprintf("rep%d", k), false, last && !cfg.traced)
		if !ok {
			return res
		}
		measured = append(measured, s)
		used += s.setupS + s.hostS
		if last {
			break
		}
	}
	res.Reps = len(measured)

	col := func(f func(s sample) float64) []float64 {
		out := make([]float64, len(measured))
		for i, s := range measured {
			out[i] = f(s)
		}
		return out
	}
	host := map[string][]float64{
		"setup_s":              col(func(s sample) float64 { return s.setupS }),
		"host_s":               col(func(s sample) float64 { return s.hostS }),
		"alloc_mb":             col(func(s sample) float64 { return s.usage.allocBytes / 1e6 }),
		"host.wall_s":          col(func(s sample) float64 { return s.wallS }),
		"host.user_cpu_s":      col(func(s sample) float64 { return s.usage.userS }),
		"host.sys_cpu_s":       col(func(s sample) float64 { return s.usage.sysS }),
		"host.gc_cpu_s":        col(func(s sample) float64 { return s.usage.gcCPUS }),
		"host.alloc_objects":   col(func(s sample) float64 { return s.usage.allocObjects }),
		"host.peak_rss_mb":     col(func(s sample) float64 { return s.usage.peakRSSMB }),
		"host.gc_cycles":       col(func(s sample) float64 { return s.usage.gcCycles }),
		"host.calib_ns_per_kb": col(func(s sample) float64 { return s.calib.copyNSPKB }),
		"host.calib_step_ns":   col(func(s sample) float64 { return s.calib.stepNS }),
		"sim.host_ns_per_event": col(func(s sample) float64 {
			return ratio(s.wallS*1e9, s.exact["sim.events"])
		}),
	}
	for name, vals := range host {
		m, _ := lookup(name)
		res.Metrics[name] = hostStat(m.Unit, vals)
	}
	requests := int(first["requests"])
	for name, v := range first {
		m, ok := lookup(name)
		if !ok {
			continue // requests, sim_s: inputs to the metrics, not metrics
		}
		st := stat{Unit: m.Unit, Value: v, Q1: v, Q3: v}
		if name == "sim_p50_ms" || name == "sim_p90_ms" || name == "sim_p99_ms" {
			st.N = requests
		}
		res.Metrics[name] = st
	}

	if cfg.traced {
		s, ok := one("traced", true, true)
		if !ok {
			return res
		}
		for name, v := range s.traced {
			m, _ := lookup(name)
			res.Metrics[name] = stat{Unit: m.Unit, Value: v, Q1: v, Q3: v}
		}
		untraced := res.Metrics["host_s"].Value
		over := ratio(s.hostS-untraced, untraced) // both at reference speed
		res.Metrics["trace.overhead_share"] = stat{Unit: "ratio", Value: over, Q1: over, Q3: over}
	}
	share := ratio(float64(res.Failed), float64(res.Attempted))
	res.Metrics["op_fail_share"] = stat{Unit: "ratio", Value: share, Q1: share, Q3: share}
	return res
}
