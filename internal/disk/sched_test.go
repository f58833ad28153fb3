package disk

import (
	"math/rand"
	"testing"

	"raidii/internal/sim"
)

// schedIOPS measures 4 KB random-read throughput with qdepth concurrent
// requesters under the given actuator policy.
func schedIOPS(t *testing.T, policy SchedPolicy, qdepth int) float64 {
	t.Helper()
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	d.SetScheduler(policy)
	const opsPer = 60
	g := sim.NewGroup(e)
	for w := 0; w < qdepth; w++ {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		g.Go("rd", func(p *sim.Proc) error {
			for i := 0; i < opsPer; i++ {
				lba := rng.Int63n(d.Sectors() - 8)
				if _, err := d.Read(p, lba, 8, nil); err != nil {
					return err
				}
			}
			return nil
		})
	}
	end := e.Run()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	return float64(qdepth*opsPer) / end.Seconds()
}

func TestSSTFBeatsFIFOUnderLoad(t *testing.T) {
	fifo := schedIOPS(t, SchedFIFO, 8)
	sstf := schedIOPS(t, SchedSSTF, 8)
	if sstf <= fifo*1.05 {
		t.Fatalf("SSTF (%.1f IOPS) should beat FIFO (%.1f) at queue depth 8", sstf, fifo)
	}
}

func TestSCANBeatsFIFOUnderLoad(t *testing.T) {
	fifo := schedIOPS(t, SchedFIFO, 8)
	scan := schedIOPS(t, SchedSCAN, 8)
	if scan <= fifo*1.05 {
		t.Fatalf("SCAN (%.1f IOPS) should beat FIFO (%.1f) at queue depth 8", scan, fifo)
	}
}

func TestPoliciesEquivalentWithoutQueueing(t *testing.T) {
	// With a single requester there is never a queue, so all policies
	// service identically.
	fifo := schedIOPS(t, SchedFIFO, 1)
	sstf := schedIOPS(t, SchedSSTF, 1)
	if fifo != sstf {
		t.Fatalf("FIFO %.2f != SSTF %.2f with no queueing", fifo, sstf)
	}
}

func TestSchedulerPreservesData(t *testing.T) {
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	d.SetScheduler(SchedSSTF)
	rng := rand.New(rand.NewSource(9))
	type frag struct {
		lba  int64
		data []byte
	}
	var frags []frag
	g := sim.NewGroup(e)
	for i := 0; i < 16; i++ {
		buf := make([]byte, 8*512)
		_, _ = rng.Read(buf)
		lba := rng.Int63n(d.Sectors()-8) / 8 * 8
		frags = append(frags, frag{lba, buf})
	}
	for _, f := range frags {
		g.Go("w", func(p *sim.Proc) error { return d.Write(p, f.lba, f.data, nil) })
	}
	e.Run()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		got := d.ReadData(f.lba, 8)
		// Overlapping random LBAs could collide; only check fragments whose
		// range is unique.
		unique := true
		for _, o := range frags {
			if o.lba == f.lba && &o.data[0] != &f.data[0] {
				unique = false
			}
		}
		if unique && string(got) != string(f.data) {
			t.Fatalf("data lost at lba %d under SSTF scheduling", f.lba)
		}
	}
}
