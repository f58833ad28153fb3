package raidii

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"raidii/internal/sim"
)

// shutDown reports whether e has been shut down, by running into the guard a
// later Spawn hits.
func shutDown(e *sim.Engine) (down bool) {
	defer func() { down = recover() != nil }()
	e.Spawn("late", func(*sim.Proc) {})
	return false
}

// TestScopeReturnsFailuresAndEndsEngine: however a simulated process fails,
// the scope returns an error that still is the original, names the
// experiment point, and leaves the engine shut down with nothing live —
// including the bystander parked on an event nobody will signal.
func TestScopeReturnsFailuresAndEndsEngine(t *testing.T) {
	boom := errors.New("boom")
	failingOp := func(p *sim.Proc, _ int, _ *rand.Rand) (int, error) {
		p.Wait(time.Millisecond)
		return 0, boom
	}
	cases := []struct {
		name string
		body func(r *rig) error
	}{
		{"process returns an error", func(r *rig) error {
			return r.do("failing", func(p *sim.Proc) error {
				p.Wait(time.Millisecond)
				return boom
			})
		}},
		{"process panics", func(r *rig) error {
			return r.do("panicking", func(p *sim.Proc) error {
				p.Wait(time.Millisecond)
				panic(boom)
			})
		}},
		{"op fails inside fixedOps", func(r *rig) error {
			_, err := r.fixedOps(2, 8, failingOp)
			return err
		}},
		{"op fails inside closedLoop", func(r *rig) error {
			_, err := r.closedLoop(2, sim.Time(time.Second), failingOp)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var eng *sim.Engine
			err := withEngine("harness/point", func(r *rig) error {
				eng = r.eng
				r.spawn("bystander", func(p *sim.Proc) error {
					sim.NewEvent(r.eng).Wait(p)
					return nil
				})
				return c.body(r)
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want one that is boom", err)
			}
			if !strings.Contains(err.Error(), "harness/point") {
				t.Errorf("error does not name the experiment point: %v", err)
			}
			if n := eng.Live(); n != 0 {
				t.Errorf("live after the scope = %d, want 0", n)
			}
			if !shutDown(eng) {
				t.Error("engine still accepts Spawn after its scope returned")
			}
		})
	}

	var pp *sim.ProcPanic
	err := withEngine("harness/panic", func(r *rig) error {
		return r.do("victim", func(*sim.Proc) error { panic(boom) })
	})
	if !errors.As(err, &pp) || pp.Proc != "victim" {
		t.Errorf("a process panic did not come back as its *sim.ProcPanic: %v", err)
	}
}

// TestTimelineWindows checks the accumulator against hand-computed buckets.
// Credits are multiples of 250 kB so a bucket's MB/s is its multiplier.
func TestTimelineWindows(t *testing.T) {
	const unit = 250_000
	at := func(ms int) sim.Time { return sim.Time(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	build := func() *timeline {
		tl := newTimeline(8) // 0 - 2 s
		tl.credit(at(100), 1*unit)
		tl.credit(at(300), 2*unit)
		tl.credit(at(600), 3*unit)
		tl.credit(at(800), 4*unit)
		tl.credit(at(1100), 5*unit)
		tl.credit(at(1300), 6*unit)
		tl.from = ms(300) // setup ended inside bucket 1: buckets 0 and 1 are not whole
		return tl
	}
	points := func(tl *timeline) []Point {
		var s Series
		tl.series(&s)
		return s.Points
	}
	equal := func(a, b []Point) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	tl := build()
	if tl.retired != ms(1300) {
		t.Fatalf("retired = %v, want the last completion, 1.3s", tl.retired)
	}
	// The last bucket (1250-1500) is listed although the run retired inside it.
	if got, want := points(tl), []Point{{750, 3}, {1000, 4}, {1250, 5}, {1500, 6}}; !equal(got, want) {
		t.Errorf("series = %v, want %v", got, want)
	}
	for _, c := range []struct {
		name     string
		from, to time.Duration
		want     float64
	}{
		{"before the fault, `end <= failAt`", 0, ms(1000), 3.5},
		{"after the fault, partial last bucket included", ms(1000), forever, 5.5},
		{"after link-up, `start >= upAt && retired >= end`", ms(1000), tl.retired, 5},
		{"outage, `start >= downAt && end <= upAt`", ms(750), ms(1000), 4},
		{"window wholly before measured-from", 0, ms(500), 0},
		{"window past retirement", ms(1500), ms(2000), 0},
		{"window narrower than a bucket", ms(800), ms(900), 0},
	} {
		if got := tl.mean(c.from, c.to); got != c.want {
			t.Errorf("%s: mean(%v, %v) = %v, want %v", c.name, c.from, c.to, got, c.want)
		}
	}

	// The fault timelines retire at the end of the engine run instead: a cut
	// inside bucket 3 keeps it and drops everything later.
	tl = build()
	tl.retired = ms(900)
	if got, want := points(tl), []Point{{750, 3}, {1000, 4}}; !equal(got, want) {
		t.Errorf("series cut at 900ms = %v, want %v", got, want)
	}
	if got := tl.mean(ms(1000), forever); got != 0 {
		t.Errorf("mean past the cut = %v, want 0", got)
	}

	// A completion past the last bucket has no bucket to count in, but it
	// retires the run later: the two empty buckets before it are now listed.
	tl = build()
	tl.credit(at(2100), 7*unit)
	if got, want := points(tl), []Point{{750, 3}, {1000, 4}, {1250, 5}, {1500, 6}, {1750, 0}, {2000, 0}}; !equal(got, want) {
		t.Errorf("series with a late completion = %v, want %v", got, want)
	}
	if got := tl.mean(ms(1000), forever); got != 2.75 {
		t.Errorf("mean with a late completion = %v, want (5+6+0+0)/4", got)
	}
}

func TestMBps(t *testing.T) {
	if r := mbps(10_000_000, 2*time.Second); r != 5 {
		t.Fatalf("rate over a duration = %f", r)
	}
	if r := mbps(uint64(10_000_000), sim.Time(2e9)); r != 5 {
		t.Fatalf("rate up to a clock reading = %f", r)
	}
	if r := mbps(1, time.Duration(0)); r != 0 {
		t.Fatalf("zero-elapsed rate = %f", r)
	}
}

// TestSweepHoldsOneEngineAtATime: by the time a sweep announces an engine,
// every engine it announced earlier has been shut down.
func TestSweepHoldsOneEngineAtATime(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiment sweeps")
	}
	for _, sweep := range []struct {
		name string
		run  func() error
	}{
		{"Fig5", func() error { _, err := Fig5([]int{64, 128}); return err }},
		{"FleetScaling", func() error { _, err := FleetScaling([]int{1, 2}); return err }},
	} {
		t.Run(sweep.name, func(t *testing.T) {
			var labels []string
			var engines []*sim.Engine
			SetProbe(func(label string, e *sim.Engine) {
				for i, earlier := range engines {
					if !shutDown(earlier) {
						t.Errorf("%s is still running when %s is announced", labels[i], label)
					}
				}
				labels = append(labels, label)
				engines = append(engines, e)
			})
			defer SetProbe(nil)
			if err := sweep.run(); err != nil {
				t.Fatal(err)
			}
			if len(engines) < 2 {
				t.Fatalf("probe saw %d engines, want a sweep", len(engines))
			}
			if last := len(engines) - 1; !shutDown(engines[last]) {
				t.Errorf("%s outlived the sweep", labels[last])
			}
		})
	}
}
