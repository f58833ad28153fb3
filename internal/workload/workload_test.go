package workload

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"raidii/internal/sim"
)

func TestClosedLoopCountsOnlyWindowOps(t *testing.T) {
	e := sim.New()
	srv := sim.NewServer(e, "dev", 1)
	horizon := sim.Time(time.Second)
	res, err := ClosedLoop(e, 2, horizon, func(p *sim.Proc, w int, _ *rand.Rand) (int, error) {
		srv.Use(p, 100*time.Millisecond)
		return 1000, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two workers on a single 100 ms server: 10 ops/s aggregate.  Workers
	// only start ops before the horizon.
	if res.Ops < 9 || res.Ops > 12 {
		t.Fatalf("ops = %d, want ~10", res.Ops)
	}
	if iops := res.IOPS(); iops < 8 || iops > 12 {
		t.Fatalf("IOPS = %f", iops)
	}
	if res.Bytes != res.Ops*1000 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
}

func TestFixedOpsSplitsWork(t *testing.T) {
	e := sim.New()
	var perWorker [4]int
	res, err := FixedOps(e, 4, 40, func(p *sim.Proc, w int, _ *rand.Rand) (int, error) {
		perWorker[w]++
		p.Wait(time.Millisecond)
		return 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 40 {
		t.Fatalf("ops = %d", res.Ops)
	}
	for w, n := range perWorker {
		if n != 10 {
			t.Fatalf("worker %d did %d ops", w, n)
		}
	}
	// 10 sequential 1 ms ops per worker, in parallel: 10 ms.
	if res.Elapsed != 10*time.Millisecond {
		t.Fatalf("elapsed = %v", res.Elapsed)
	}
}

func TestMeanLatency(t *testing.T) {
	e := sim.New()
	res, err := FixedOps(e, 1, 5, func(p *sim.Proc, _ int, _ *rand.Rand) (int, error) {
		p.Wait(20 * time.Millisecond)
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.MeanLatency(); m != 20*time.Millisecond {
		t.Fatalf("mean latency = %v", m)
	}
}

func TestMBps(t *testing.T) {
	r := Result{Bytes: 5_000_000, Elapsed: time.Second}
	if r.MBps() != 5 {
		t.Fatalf("MBps = %f", r.MBps())
	}
	var zero Result
	if zero.MBps() != 0 || zero.IOPS() != 0 || zero.MeanLatency() != 0 {
		t.Fatal("zero result should report zeros")
	}
}

func TestRandomAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := RandomAligned(rng, 1000, 8)
		if v%8 != 0 || v < 0 || v >= 1000 {
			t.Fatalf("misaligned or out of range: %d", v)
		}
	}
	if v := RandomAligned(rng, 4, 8); v != 0 {
		t.Fatalf("tiny space should return 0, got %d", v)
	}
}

func TestWorkersHaveIndependentStreams(t *testing.T) {
	e := sim.New()
	seen := map[int]int64{}
	if _, err := FixedOps(e, 2, 2, func(p *sim.Proc, w int, rng *rand.Rand) (int, error) {
		seen[w] = rng.Int63()
		p.Wait(time.Millisecond)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen[0] == seen[1] {
		t.Fatal("workers shared a random stream")
	}
}

// TestOpErrorEndsWorkerAndIsReturned: a failing op is not counted, stops its
// worker only, and comes back as the run's error; the elapsed time is
// measured from the call, not from the engine's time zero.
func TestOpErrorEndsWorkerAndIsReturned(t *testing.T) {
	boom := errors.New("boom")
	e := sim.New()
	e.Spawn("earlier", func(p *sim.Proc) { p.Wait(time.Second) })
	e.Run()
	res, err := FixedOps(e, 2, 8, func(p *sim.Proc, w int, _ *rand.Rand) (int, error) {
		p.Wait(time.Millisecond)
		if w == 1 {
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if res.Ops != 4 || res.Bytes != 4 {
		t.Fatalf("ops = %d bytes = %d, want worker 0's four ops only", res.Ops, res.Bytes)
	}
	if res.Elapsed != 4*time.Millisecond {
		t.Fatalf("elapsed = %v, want 4ms measured from the call", res.Elapsed)
	}
	_, err = ClosedLoop(sim.New(), 1, sim.Time(time.Second), func(p *sim.Proc, _ int, _ *rand.Rand) (int, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ClosedLoop err = %v, want boom", err)
	}
}
