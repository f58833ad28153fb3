package raidii

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestFig7Deterministic runs the same experiment twice and demands
// byte-identical figures: the simulation must be a pure function of its
// configuration and seeds.  Any wall-clock leak, global-rand draw, raw
// goroutine, or map-order dependence in the event timeline shows up here
// as a diff.
func TestFig7Deterministic(t *testing.T) {
	a, err := Fig7([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig7([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Fig7 not deterministic:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestSeededWorkloadDeterministic drives two fresh servers through an
// identical seeded random workload and requires identical per-operation
// latencies and identical final simulated clocks.
func TestSeededWorkloadDeterministic(t *testing.T) {
	run := func() (time.Duration, []time.Duration) {
		srv, err := NewServer(WithDisksPerString(1))
		if err != nil {
			t.Fatal(err)
		}
		var lats []time.Duration
		_, err = srv.Simulate(func(task *Task) error {
			if err := task.FormatFS(); err != nil {
				return err
			}
			f, err := task.Board(0).Create("/wl")
			if err != nil {
				return err
			}
			const fileSize = 2 << 20
			if _, err := f.Write(0, make([]byte, fileSize)); err != nil {
				return err
			}
			if err := task.Sync(); err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 25; i++ {
				n := 4096 * (1 + rng.Intn(8))
				off := rng.Int63n(fileSize - int64(n))
				if rng.Intn(2) == 0 {
					_, d, err := f.Read(off, n)
					if err != nil {
						return err
					}
					lats = append(lats, d)
				} else {
					before := task.Elapsed()
					if _, err := f.Write(off, make([]byte, n)); err != nil {
						return err
					}
					lats = append(lats, task.Elapsed()-before)
				}
			}
			return task.Sync()
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv.Now(), lats
	}

	clock1, lats1 := run()
	clock2, lats2 := run()
	if clock1 != clock2 {
		t.Fatalf("final simulated clocks differ: %v vs %v", clock1, clock2)
	}
	if !reflect.DeepEqual(lats1, lats2) {
		t.Fatalf("per-op latencies differ:\nfirst:  %v\nsecond: %v", lats1, lats2)
	}
}
