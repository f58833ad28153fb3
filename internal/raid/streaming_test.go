package raid

import (
	"math/rand"
	"testing"
	"time"

	"raidii/internal/sim"
)

func TestWriteStreamingFullStripesStayConsistent(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	// Whole-stripe-aligned streaming writes keep parity valid.
	n := a.DataDisks() * tUnit * 3 // three full stripes
	runProc(e, func(p *sim.Proc) {
		if err := a.WriteStreaming(p, 0, patterned(n*tSec, 6)); err != nil {
			t.Error(err)
		}
		if bad := a.CheckParity(p); bad != 0 {
			t.Fatalf("%d bad stripes after full-stripe streaming", bad)
		}
		got, _ := a.Read(p, 0, n)
		want := patterned(n*tSec, 6)
		for i := range got {
			if got[i] != want[i] {
				t.Fatal("streamed data read back wrong")
			}
		}
	})
	st := a.Stats()
	if st.FullStripeWrites != 3 {
		t.Fatalf("full stripe writes = %d", st.FullStripeWrites)
	}
	if st.SmallWrites != 0 || st.ReconstructWrites != 0 {
		t.Fatalf("streaming should not RMW: %+v", st)
	}
}

func TestWriteStreamingNeverReadsDisks(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	runProc(e, func(p *sim.Proc) {
		// Unaligned: covers partial stripes, still zero reads.
		if err := a.WriteStreaming(p, 3, patterned(10*tSec, 7)); err != nil {
			t.Error(err)
		}
	})
	if st := a.Stats(); st.DiskReads != 0 {
		t.Fatalf("streaming write issued %d disk reads", st.DiskReads)
	}
	if a.Stats().StreamingWrites == 0 {
		t.Fatal("streaming partial stripes not counted")
	}
}

func TestLevel3SingleRequestAtATime(t *testing.T) {
	// "RAID Level 3 ... supports only one small I/O at a time": concurrent
	// small reads serialize on the array lock, unlike Level 5.
	elapsed := func(level Level) sim.Duration {
		e := sim.New()
		devs := make([]Dev, 5)
		for i := range devs {
			devs[i] = &slowDev{MemDev: NewMemDev(256, tSec), eng: e, delay: 10 * time.Millisecond}
		}
		a, err := New(e, devs, Config{Level: level, StripeUnitSectors: tUnit}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := sim.NewGroup(e)
		for i := 0; i < 4; i++ {
			lba := int64(i * 16)
			g.Go("r", func(p *sim.Proc) error {
				_, err := a.Read(p, lba, 1)
				return err
			})
		}
		end := e.Run()
		if err := g.Err(); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(end)
	}
	l3, l5 := elapsed(Level3), elapsed(Level5)
	if l3 <= l5 {
		t.Fatalf("Level 3 (%v) should serialize vs Level 5 (%v)", l3, l5)
	}
}

// slowDev wraps MemDev with a per-operation delay: fixed, plus a seeded
// random jitter when rng is set.
type slowDev struct {
	*MemDev
	eng    *sim.Engine
	delay  time.Duration
	jitter time.Duration
	rng    *rand.Rand
}

func (s *slowDev) wait(p *sim.Proc) {
	d := s.delay
	if s.rng != nil {
		d += time.Duration(s.rng.Int63n(int64(s.jitter)))
	}
	p.Wait(d)
}

func (s *slowDev) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	s.wait(p)
	return s.MemDev.Read(p, lba, n)
}

func (s *slowDev) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	s.wait(p)
	return s.MemDev.ReadInto(p, lba, dst)
}

func (s *slowDev) Write(p *sim.Proc, lba int64, data []byte) error {
	s.wait(p)
	return s.MemDev.Write(p, lba, data)
}

func TestReconstructPipelinedMatchesSerialContent(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	data := patterned(200*tSec, 3)
	runProc(e, func(p *sim.Proc) {
		_ = a.Write(p, 0, data)
		_ = a.FailDisk(1)
		spare := NewMemDev(256, tSec)
		if _, err := a.Reconstruct(p, 1, spare); err != nil {
			t.Fatal(err)
		}
		got, _ := a.Read(p, 0, 200)
		for i := range got {
			if got[i] != data[i] {
				t.Fatal("pipelined rebuild corrupted data")
			}
		}
		if bad := a.CheckParity(p); bad != 0 {
			t.Fatalf("%d inconsistent stripes", bad)
		}
	})
}

func TestReconstructLevel1(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 6, Level1)
	data := patterned(100*tSec, 4)
	runProc(e, func(p *sim.Proc) {
		_ = a.Write(p, 0, data)
		_ = a.FailDisk(2)
		spare := NewMemDev(256, tSec)
		if _, err := a.Reconstruct(p, 2, spare); err != nil {
			t.Fatal(err)
		}
		got, _ := a.Read(p, 0, 100)
		for i := range got {
			if got[i] != data[i] {
				t.Fatal("mirror rebuild corrupted data")
			}
		}
	})
}
