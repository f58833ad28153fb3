// Package workload provides the request generators the experiments use:
// closed-loop process swarms (one process per disk for Table 2), fixed-size
// random request streams (Figures 5 and 8), and sequential streams
// (Table 1, Figure 7).
package workload

import (
	"math/rand"

	"raidii/internal/sim"
)

// Result summarizes a measured run.
type Result struct {
	Ops      uint64
	Bytes    uint64
	Elapsed  sim.Duration
	LatTotal sim.Duration
}

// MBps returns the decimal-megabytes-per-second throughput the paper's
// plots use.
func (r Result) MBps() float64 {
	s := r.Elapsed.Seconds()
	if s == 0 {
		return 0
	}
	return float64(r.Bytes) / s / 1e6
}

// IOPS returns operations per second.
func (r Result) IOPS() float64 {
	s := r.Elapsed.Seconds()
	if s == 0 {
		return 0
	}
	return float64(r.Ops) / s
}

// MeanLatency returns the average per-operation latency.
func (r Result) MeanLatency() sim.Duration {
	if r.Ops == 0 {
		return 0
	}
	return r.LatTotal / sim.Duration(r.Ops)
}

// Op performs one operation and returns the bytes it moved.  worker
// identifies the issuing process, rng is that worker's private random
// stream.  An error ends that worker's loop and becomes the run's error.
type Op func(p *sim.Proc, worker int, rng *rand.Rand) (int, error)

// ClosedLoop runs nWorkers processes, each issuing op back-to-back until
// the horizon, on a fresh footing: the engine is run until all in-flight
// operations at the horizon complete, but only operations *started* before
// the horizon are counted.  It returns the first error any op returned.
func ClosedLoop(e *sim.Engine, nWorkers int, horizon sim.Time, op Op) (Result, error) {
	return run(e, nWorkers, 9973, 1, op, func(p *sim.Proc, _ int) bool { return p.Now() < horizon })
}

// FixedOps runs nWorkers processes issuing a total of totalOps operations
// (split evenly), then reports the simulated time elapsed since the call.
// It returns the first error any op returned.
func FixedOps(e *sim.Engine, nWorkers, totalOps int, op Op) (Result, error) {
	per := totalOps / nWorkers
	return run(e, nWorkers, 7919, 3, op, func(_ *sim.Proc, done int) bool { return done < per })
}

// run spawns the workers (worker w's stream is seeded seedMul*w+seedAdd),
// drives the engine until it drains and accounts the operations that
// completed.  more is asked before each operation, with the worker's count
// so far.
func run(e *sim.Engine, nWorkers int, seedMul, seedAdd int64, op Op, more func(p *sim.Proc, done int) bool) (Result, error) {
	var res Result
	g := sim.NewGroup(e)
	begin := e.Now()
	for w := 0; w < nWorkers; w++ {
		rng := rand.New(rand.NewSource(seedMul*int64(w) + seedAdd))
		g.Go("worker", func(p *sim.Proc) error {
			for done := 0; more(p, done); done++ {
				start := p.Now()
				n, err := op(p, w, rng)
				if err != nil {
					return err
				}
				res.Ops++
				res.Bytes += uint64(n)
				res.LatTotal += p.Now().Sub(start)
			}
			return nil
		})
	}
	res.Elapsed = e.Run().Sub(begin)
	return res, g.Err()
}

// RandomAligned returns a uniformly random offset in [0, space), aligned
// to align.  space and align are in the caller's units (sectors, bytes).
func RandomAligned(rng *rand.Rand, space, align int64) int64 {
	if space <= align {
		return 0
	}
	n := space / align
	return rng.Int63n(n) * align
}
