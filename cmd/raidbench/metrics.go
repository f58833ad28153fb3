package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"raidii"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// Per-request telemetry export.  -metrics attaches a telemetry registry
// (and starts its in-flight gauge series) on every engine the experiments
// construct and writes one Prometheus text exposition section per run,
// each series carrying a run="<label>" label.  -metrics-json writes the
// same data as versioned JSON, the gauge's time series included.  Both outputs use
// simulated time only and are byte-identical across runs; the metrics pin
// and determinism tests rely on that.

// samplerInterval is the gauge-sampling period, in simulated time.
const samplerInterval = 250 * time.Millisecond

// metricsRun is one engine's registry, labeled by the experiment point
// that created it.
type metricsRun struct {
	label string
	reg   *telemetry.Registry
}

var metricsRuns []metricsRun

// metricsProbe attaches telemetry to a freshly constructed engine.  Attach
// is idempotent, so experiments that attach their own registry (fileserver,
// netfaults, cache) share it with the export and the numbers agree.
func metricsProbe(label string, e *sim.Engine) {
	reg := telemetry.Attach(e)
	reg.StartSampler(sim.Duration(samplerInterval))
	metricsRuns = append(metricsRuns, metricsRun{label: label, reg: reg})
}

// writeMetricsProm writes every run's registry as Prometheus text, one
// blank-line-separated section per run.
func writeMetricsProm(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	var werr error
	for i, mr := range metricsRuns {
		if i > 0 {
			if _, err := fmt.Fprintln(f); err != nil && werr == nil {
				werr = err
			}
		}
		err := telemetry.WritePrometheus(f, mr.reg, telemetry.ExportOptions{Run: mr.label})
		if err != nil && werr == nil {
			werr = err
		}
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("metrics: %w", werr)
	}
	return nil
}

// metricsJSONReport wraps the per-run JSON exports in one document.
type metricsJSONReport struct {
	Schema int                    `json:"schema"`
	Runs   []telemetry.JSONExport `json:"runs"`
}

// writeMetricsJSON writes every run's registry as one JSON document.
func writeMetricsJSON(path string) error {
	rep := metricsJSONReport{Schema: telemetry.JSONSchema, Runs: []telemetry.JSONExport{}}
	for _, mr := range metricsRuns {
		rep.Runs = append(rep.Runs, telemetry.Export(mr.reg, telemetry.ExportOptions{Run: mr.label}))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}

// ms converts a simulated duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// printLatency prints a request kind's latency summary, one or two lines
// indented under the experiment's bandwidth numbers, and records its tail
// quantiles as bench points for the regression gate.
func printLatency(prefix string, ls raidii.LatencyStats) {
	if ls.N == 0 {
		fmt.Printf("  %s: no latency samples\n", ls.Kind)
	} else {
		fmt.Printf("  %s latency (n=%d): p50 %.2f ms  p99 %.2f ms  p999 %.2f ms  mean %.2f ms  max %.2f ms",
			ls.Kind, ls.N, ms(ls.P50), ms(ls.P99), ms(ls.P999), ms(ls.Mean), ms(ls.Max))
		if ls.Degraded+ls.Shed+ls.Retried > 0 {
			fmt.Printf("  (%d degraded, %d shed, %d retried)", ls.Degraded, ls.Shed, ls.Retried)
		}
		if len(ls.Stages) > 0 {
			fmt.Print("\n      stages (mean work/req):")
			for _, st := range ls.Stages {
				fmt.Printf(" %s %.2fms", st.Stage, ms(st.Mean))
			}
		}
		fmt.Println()
	}
	jsonPoint(prefix+"-p50", 0, "ms", ms(ls.P50))
	jsonPoint(prefix+"-p99", 0, "ms", ms(ls.P99))
	jsonPoint(prefix+"-p999", 0, "ms", ms(ls.P999))
}
