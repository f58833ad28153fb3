package main

import (
	"encoding/json"
	"os"
	"runtime"

	"raidii"
)

// Machine-readable benchmark results.  The simulator is deterministic —
// identical binaries produce byte-identical values — so CI diffs this
// output against the checked-in BENCH_baseline.json with strict equality
// (see the bench-regression job), turning the performance trajectory into
// a hard regression gate instead of a tolerance band.

// benchSchema is bumped whenever the JSON shape changes incompatibly.
// Schema 2 added the hostElapsedSeconds fields; schema 3 added
// eventsExecuted and eventsPerSecond.
const benchSchema = 3

type benchPoint struct {
	Series string  `json:"series"`
	X      float64 `json:"x"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
}

// benchExperiment's eventsExecuted counts simulator events dispatched by
// every engine the experiment created: deterministic, so it is part of the
// gated baseline — an event-count drift means simulated behaviour changed
// even if every measured curve happens to agree.  The fields after it are
// the host-dependent ones: the real cost of the run in wall-clock and
// process CPU seconds (user and system, from getrusage), for spotting
// simulator slowdowns, and in the report the GOMAXPROCS they were measured
// at.  They are deliberately the LAST fields of the object so the
// regression gate can strip their lines before diffing and still compare
// structurally identical text.
type benchExperiment struct {
	Name               string       `json:"name"`
	Config             string       `json:"config"`
	Points             []benchPoint `json:"points"`
	EventsExecuted     uint64       `json:"eventsExecuted"`
	EventsPerSecond    float64      `json:"eventsPerSecond"`
	HostElapsedSeconds float64      `json:"hostElapsedSeconds"`
	UserCPUSeconds     float64      `json:"userCPUSeconds"`
	SysCPUSeconds      float64      `json:"sysCPUSeconds"`
}

type benchReport struct {
	Schema             int               `json:"schema"`
	Experiments        []benchExperiment `json:"experiments"`
	EventsExecuted     uint64            `json:"eventsExecuted"`
	EventsPerSecond    float64           `json:"eventsPerSecond"`
	HostElapsedSeconds float64           `json:"hostElapsedSeconds"`
	UserCPUSeconds     float64           `json:"userCPUSeconds"`
	SysCPUSeconds      float64           `json:"sysCPUSeconds"`
	GOMAXPROCS         int               `json:"gomaxprocs"`
}

// collector accumulates the points the run functions record.  nil when
// -json was not requested, so recording is a no-op.
var collector *benchReport

// jsonExperiment opens a new experiment entry; subsequent jsonPoint calls
// land in it.  config is a short human-readable description of the machine
// configuration the numbers were measured on.
func jsonExperiment(name, config string) {
	if collector == nil {
		return
	}
	collector.Experiments = append(collector.Experiments, benchExperiment{
		Name: name, Config: config, Points: []benchPoint{},
	})
}

// jsonElapsed records the current experiment's event count and host cost
// and accumulates the report totals.
func jsonElapsed(cost hostCost, events uint64) {
	if collector == nil || len(collector.Experiments) == 0 {
		return
	}
	ex := &collector.Experiments[len(collector.Experiments)-1]
	ex.EventsExecuted = events
	if cost.wall > 0 {
		ex.EventsPerSecond = float64(events) / cost.wall
	}
	ex.HostElapsedSeconds, ex.UserCPUSeconds, ex.SysCPUSeconds = cost.wall, cost.user, cost.sys
	collector.EventsExecuted += events
	collector.HostElapsedSeconds += cost.wall
	collector.UserCPUSeconds += cost.user
	collector.SysCPUSeconds += cost.sys
}

// jsonPoint records one data point into the current experiment.
func jsonPoint(series string, x float64, unit string, value float64) {
	if collector == nil || len(collector.Experiments) == 0 {
		return
	}
	ex := &collector.Experiments[len(collector.Experiments)-1]
	ex.Points = append(ex.Points, benchPoint{Series: series, X: x, Unit: unit, Value: value})
}

// jsonFigure records every series point of a figure, in series then X
// order — the order the figure was built in, which is deterministic.
func jsonFigure(fig *raidii.Figure, unit string) {
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			jsonPoint(s.Name, pt.X, unit, pt.Y)
		}
	}
}

// writeJSON marshals the report to path.
func writeJSON(path string) error {
	if collector.HostElapsedSeconds > 0 {
		collector.EventsPerSecond = float64(collector.EventsExecuted) / collector.HostElapsedSeconds
	}
	collector.GOMAXPROCS = runtime.GOMAXPROCS(0)
	data, err := json.MarshalIndent(collector, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
