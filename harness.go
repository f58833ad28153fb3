package raidii

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/workload"
)

// This file is the one harness every experiment runner is written on: a
// scope that owns an engine from probe to Shutdown, a process runner with a
// single error path, the bandwidth-timeline accumulator of the four fault
// timelines, and the MB/s division.  DESIGN.md §19 states the rules.

// ErrDataMismatch reports that an experiment read back bytes other than the
// ones it stored.  The returned error wraps it with the experiment point and
// the offending offset or record.
var ErrDataMismatch = errors.New("data read back differs from data written")

// rig is one experiment point's engine and the group its processes are
// forked in, which keeps the first error any of them returned.  The error is
// sticky: once a process has failed, every later run reports it, and the
// runner returns.
type rig struct {
	eng *sim.Engine
	g   *sim.Group
}

// scope announces e to the probe under label, runs body, and always ends the
// engine before returning: Shutdown reaps whatever is still parked (workers
// gated on a setup process that failed, open-loop generators), the shut-down
// engine must have no live process left, and a panic in a simulated process
// comes back as an error wrapping the *sim.ProcPanic.  One scope is one sweep
// point, so a sweep never holds more than one machine.
func scope(label string, e *sim.Engine, body func(r *rig) error) (err error) {
	attachProbe(label, e)
	defer func() {
		switch v := recover().(type) {
		case nil:
		case *sim.ProcPanic:
			err = v
		default:
			err = fmt.Errorf("panic outside any simulated process: %v", v)
		}
		e.Shutdown()
		if n := e.Live(); n != 0 && err == nil {
			err = fmt.Errorf("%d processes still live after Shutdown", n)
		}
		if err != nil {
			err = fmt.Errorf("raidii: %s: %w", label, err)
		}
	}()
	return body(&rig{eng: e, g: sim.NewGroup(e)})
}

// withEngine scopes a bare engine, for rigs assembled from parts.
func withEngine(label string, body func(r *rig) error) error {
	return scope(label, sim.New(), body)
}

// withSystem scopes a RAID-II server built from cfg.
func withSystem(label string, cfg server.Config, body func(r *rig, sys *server.System) error) error {
	sys, err := server.New(cfg)
	if err != nil {
		return err
	}
	return scope(label, sys.Eng, func(r *rig) error { return body(r, sys) })
}

// withFleet scopes a multi-host fleet built from cfg.
func withFleet(label string, cfg server.Config, body func(r *rig, fl *server.Fleet) error) error {
	fl, err := server.NewFleet(cfg)
	if err != nil {
		return err
	}
	return scope(label, fl.Eng, func(r *rig) error { return body(r, fl) })
}

// withRAIDI scopes the first-prototype baseline machine.
func withRAIDI(label string, body func(r *rig, m *server.RAIDI) error) error {
	m, err := server.NewRAIDI(server.DefaultRAIDIConfig())
	if err != nil {
		return err
	}
	return scope(label, m.Eng, func(r *rig) error { return body(r, m) })
}

// spawn starts body as a simulated process for the next run.
func (r *rig) spawn(name string, body func(p *sim.Proc) error) {
	r.g.Go(name, body)
}

// run drives the engine until it drains and returns the clock and the
// rig's error.
func (r *rig) run() (sim.Time, error) {
	return r.eng.Run(), r.g.Err()
}

// do runs body as a process on its own.
func (r *rig) do(name string, body func(p *sim.Proc) error) error {
	r.spawn(name, body)
	_, err := r.run()
	return err
}

// fixedOps is workload.FixedOps on the rig's engine and error path; any
// process spawned beforehand shares the run.
func (r *rig) fixedOps(workers, total int, op workload.Op) (workload.Result, error) {
	res, err := workload.FixedOps(r.eng, workers, total, op)
	return res, cmp.Or(r.g.Err(), err)
}

// closedLoop is workload.ClosedLoop on the rig's engine and error path.
func (r *rig) closedLoop(workers int, horizon sim.Time, op workload.Op) (workload.Result, error) {
	res, err := workload.ClosedLoop(r.eng, workers, horizon, op)
	return res, cmp.Or(r.g.Err(), err)
}

// workers spawns the outstanding request processes under name, each with the
// private random stream workload.FixedOps would give it.
func (r *rig) workers(name string, body func(p *sim.Proc, rng *rand.Rand) error) {
	for w := 0; w < outstanding; w++ {
		rng := rand.New(rand.NewSource(int64(7919*w + 3)))
		r.spawn(name, func(p *sim.Proc) error { return body(p, rng) })
	}
}

// mbps converts bytes moved in elapsed to decimal MB/s, 0 for no time.
// elapsed is a sim.Time or a time.Duration: the two Seconds methods round
// differently in the last bit, so each caller passes the clock value it
// measured rather than a conversion of it.
func mbps[N int | int64 | uint64](bytes N, elapsed interface{ Seconds() float64 }) float64 {
	s := elapsed.Seconds()
	if s == 0 {
		return 0
	}
	return float64(bytes) / s / 1e6
}

// timelineBucket is the interval of the fault timelines' bandwidth series.
const timelineBucket = 250 * time.Millisecond

// forever closes a timeline window that runs to the end of the series.
const forever = time.Duration(math.MaxInt64)

// timeline accumulates delivered bytes per timelineBucket of absolute
// simulated time and reports them as a bandwidth series and as means over
// phase windows.  A bucket is listed when it starts no earlier than from
// (the workload was running for all of it) and no later than retired (the
// last credited completion, unless the runner cuts it elsewhere).
type timeline struct {
	bytes   []uint64
	from    time.Duration
	retired time.Duration
}

// newTimeline makes a timeline of n buckets measured from time zero.
func newTimeline(n int) *timeline { return &timeline{bytes: make([]uint64, n)} }

// credit adds an operation that completed at now; completions past the last
// bucket still move retired.
func (t *timeline) credit(now sim.Time, bytes int) {
	d := time.Duration(now)
	if i := int(d / timelineBucket); i < len(t.bytes) {
		t.bytes[i] += uint64(bytes)
	}
	if d > t.retired {
		t.retired = d
	}
}

// listed calls each, in time order, for every listed bucket lying wholly
// inside [from, to).
func (t *timeline) listed(from, to time.Duration, each func(end time.Duration, bytes uint64)) {
	for i, b := range t.bytes {
		start := time.Duration(i) * timelineBucket
		end := start + timelineBucket
		if t.retired < start {
			break
		}
		if start >= t.from && start >= from && end <= to {
			each(end, b)
		}
	}
}

// series appends every listed bucket to s as (bucket end in ms, MB/s).
func (t *timeline) series(s *Series) {
	t.listed(0, forever, func(end time.Duration, b uint64) {
		s.Add(float64(end.Milliseconds()), mbps(b, timelineBucket))
	})
}

// mean is the bandwidth over the listed buckets wholly inside [from, to),
// 0 when there are none.
func (t *timeline) mean(from, to time.Duration) float64 {
	var sum uint64
	var dur time.Duration
	t.listed(from, to, func(_ time.Duration, b uint64) {
		sum += b
		dur += timelineBucket
	})
	return mbps(sum, dur)
}
