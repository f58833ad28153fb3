package raid

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"raidii/internal/sim"
)

const (
	tSec  = 512
	tUnit = 4 // sectors per stripe unit in tests
)

func newArray(t *testing.T, e *sim.Engine, width int, level Level) (*Array, []*MemDev) {
	t.Helper()
	devs := make([]Dev, width)
	mems := make([]*MemDev, width)
	for i := range devs {
		mems[i] = NewMemDev(256, tSec)
		devs[i] = mems[i]
	}
	a, err := New(e, devs, Config{Level: level, StripeUnitSectors: tUnit}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, mems
}

// runProc executes fn inside a one-shot simulated process.
func runProc(e *sim.Engine, fn func(*sim.Proc)) {
	e.Spawn("test", fn)
	e.Run()
}

func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + seed
	}
	return b
}

func TestRoundTripAllLevels(t *testing.T) {
	for _, level := range []Level{Level0, Level1, Level3, Level5} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			e := sim.New()
			a, _ := newArray(t, e, 6, level)
			data := patterned(20*tSec, 1)
			var got []byte
			runProc(e, func(p *sim.Proc) {
				_ = a.Write(p, 3, data)
				got, _ = a.Read(p, 3, 20)
			})
			if !bytes.Equal(got, data) {
				t.Fatal("round trip failed")
			}
		})
	}
}

func TestCapacityByLevel(t *testing.T) {
	e := sim.New()
	for _, tc := range []struct {
		level Level
		want  int64
	}{
		{Level0, 6 * 256},
		{Level1, 3 * 256},
		{Level3, 5 * 256},
		{Level5, 5 * 256},
	} {
		a, _ := newArray(t, e, 6, tc.level)
		if got := a.Sectors(); got != tc.want {
			t.Errorf("%v: sectors = %d, want %d", tc.level, got, tc.want)
		}
	}
}

func TestParityConsistentAfterWrites(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	rng := rand.New(rand.NewSource(7))
	runProc(e, func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			n := 1 + rng.Intn(30)
			lba := rng.Int63n(a.Sectors() - int64(n))
			buf := make([]byte, n*tSec)
			_, _ = rng.Read(buf)
			_ = a.Write(p, lba, buf)
		}
		if bad := a.CheckParity(p); bad != 0 {
			t.Errorf("%d inconsistent stripes after random writes", bad)
		}
	})
}

func TestDegradedReadReconstructs(t *testing.T) {
	for _, level := range []Level{Level1, Level3, Level5} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			e := sim.New()
			a, _ := newArray(t, e, 6, level)
			data := patterned(40*tSec, 9)
			runProc(e, func(p *sim.Proc) {
				_ = a.Write(p, 0, data)
				for fail := 0; fail < a.Width(); fail++ {
					if level == Level1 && fail%2 == 1 {
						continue // loc never returns mirror copies
					}
					_ = a.FailDisk(fail)
					got, _ := a.Read(p, 0, 40)
					a.ReturnDisk(fail)
					if !bytes.Equal(got, data) {
						t.Errorf("degraded read wrong with disk %d failed", fail)
					}
				}
			})
		})
	}
}

func TestWritesWhileDegradedThenReconstruct(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	before := patterned(60*tSec, 2)
	after := patterned(24*tSec, 5)
	runProc(e, func(p *sim.Proc) {
		_ = a.Write(p, 0, before)
		_ = a.FailDisk(2)
		_ = a.Write(p, 10, after) // partial and full stripes while degraded
		spare := NewMemDev(256, tSec)
		if _, err := a.Reconstruct(p, 2, spare); err != nil {
			t.Fatal(err)
		}
		// After reconstruction everything reads back correctly from the
		// repaired array with no degraded paths.
		want := append([]byte{}, before...)
		copy(want[10*tSec:], after)
		got, _ := a.Read(p, 0, 60)
		if !bytes.Equal(got, want) {
			t.Fatal("post-reconstruction contents wrong")
		}
		if bad := a.CheckParity(p); bad != 0 {
			t.Fatalf("%d inconsistent stripes after reconstruction", bad)
		}
		// DegradedReads counts foreground read stripes only: the solves the
		// degraded writes and the rebuild ran are not reads.
		if st := a.Stats(); st.DegradedReads != 0 || st.RebuildStripes == 0 {
			t.Fatalf("stats = %+v, want no degraded reads and some rebuilt stripes", st)
		}
	})
}

func TestReconstructNotFailedErrors(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	runProc(e, func(p *sim.Proc) {
		if _, err := a.Reconstruct(p, 1, NewMemDev(256, tSec)); err == nil {
			t.Error("expected error reconstructing healthy disk")
		}
	})
}

func TestFullStripeWriteAvoidsReads(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	// One full stripe: dataDisks * unit sectors, aligned.
	n := a.DataDisks() * tUnit
	data := patterned(n*tSec, 3)
	runProc(e, func(p *sim.Proc) { _ = a.Write(p, 0, data) })
	st := a.Stats()
	if st.FullStripeWrites != 1 || st.SmallWrites != 0 {
		t.Fatalf("stats = %+v, want one full-stripe write", st)
	}
	if st.DiskReads != 0 {
		t.Fatalf("full-stripe write issued %d reads", st.DiskReads)
	}
	if st.DiskWrites != uint64(a.Width()) {
		t.Fatalf("full-stripe write issued %d writes, want %d", st.DiskWrites, a.Width())
	}
}

func TestSmallWriteCostsFourAccesses(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	data := patterned(tSec, 4) // one sector: partial stripe
	runProc(e, func(p *sim.Proc) { _ = a.Write(p, 0, data) })
	st := a.Stats()
	if st.SmallWrites != 1 {
		t.Fatalf("stats = %+v, want one small write", st)
	}
	if st.DiskReads != 2 || st.DiskWrites != 2 {
		t.Fatalf("small write did %d reads + %d writes, want 2+2", st.DiskReads, st.DiskWrites)
	}
}

// TestWidePartialWriteReadsTheComplement: a healthy reconstruct-write reads
// the data columns it does not fully overwrite and no check column, at Level
// 6 as at Level 5.  On the I/O-sequence pin's array (6 wide, 4-sector units)
// a write of all but the first and last sector of three of the four data
// columns reads the trimmed first column and the untouched fourth, and writes
// three data ranges plus P and Q.
func TestWidePartialWriteReadsTheComplement(t *testing.T) {
	e := sim.New()
	a, devs := newCountedArray(t, e, 6, Level6)
	S := a.DataDisks() * tUnit
	runProc(e, func(p *sim.Proc) { _ = a.Write(p, int64(2*S+1), patterned(11*tSec, 5)) })
	st := a.Stats()
	if st.ReconstructWrites != 1 || st.DiskReads != 2 || st.DiskWrites != 5 {
		t.Fatalf("stats = %+v, want one reconstruct-write of 2 reads + 5 writes", st)
	}
	cmds, secs := 0, 0
	for _, d := range devs {
		cmds, secs = cmds+d.cmds, secs+d.secs
	}
	if cmds != 7 || secs != 27 {
		t.Fatalf("wide partial write cost %d commands / %d sectors, want 7 / 27", cmds, secs)
	}
	for j := 0; j < 2; j++ {
		if d := devs[a.colDev(2, a.DataDisks()+j)]; d.reads != 0 {
			t.Fatalf("check column %d was read %d times", j, d.reads)
		}
	}
}

func TestLevel5ParityRotates(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	seen := map[int]bool{}
	for s := int64(0); s < 5; s++ {
		pdev := a.colDev(s, a.dataDisks())
		seen[pdev] = true
	}
	if len(seen) != 5 {
		t.Fatalf("parity hit %d distinct disks over 5 stripes, want 5", len(seen))
	}
}

// TestRoleLayoutIsABijection: at every level and width, each stripe's roles
// map onto distinct devices and Role inverts colDev — the one layout
// function the whole stripe code stands on.
func TestRoleLayoutIsABijection(t *testing.T) {
	for _, level := range []Level{Level0, Level1, Level3, Level5, Level6} {
		for width := 4; width <= 8; width += 2 {
			e := sim.New()
			a, _ := newArray(t, e, width, level)
			for s := int64(0); s < int64(2*width); s++ {
				seen := map[int]bool{}
				for role := 0; role < width; role++ {
					dev := a.colDev(s, role)
					if dev < 0 || dev >= width || seen[dev] {
						t.Fatalf("%v width %d stripe %d: role %d on device %d (out of range or taken)", level, width, s, role, dev)
					}
					seen[dev] = true
					if got := a.Role(s, dev); got != role {
						t.Fatalf("%v width %d stripe %d: Role(colDev(%d)) = %d", level, width, s, role, got)
					}
				}
			}
		}
	}
}

func TestLevel3ParityFixed(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level3)
	for s := int64(0); s < 5; s++ {
		if pdev := a.colDev(s, a.dataDisks()); pdev != 4 {
			t.Fatalf("level 3 parity on disk %d, want dedicated disk 4", pdev)
		}
	}
}

func TestLevel5SpreadsDataAcrossAllDisks(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	seen := map[int]bool{}
	for s := int64(0); s < 5; s++ {
		for pos := 0; pos < a.DataDisks(); pos++ {
			devIdx := a.colDev(s, pos)
			pdev := a.colDev(s, a.dataDisks())
			if devIdx == pdev {
				t.Fatalf("data position maps onto parity disk at stripe %d", s)
			}
			seen[devIdx] = true
		}
	}
	if len(seen) != 5 {
		t.Fatalf("data only touched %d disks", len(seen))
	}
}

// TestDoubleFailureSolveFails: a solve that finds more columns lost than the
// level has check columns returns the typed error — it neither panics nor
// fabricates a column — and two failed devices lose a Level 5 array.
func TestDoubleFailureSolveFails(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	_ = a.FailDisk(0)
	a.failed.Add(1) // behind FailDisk's back, so the solve is what notices
	runProc(e, func(p *sim.Proc) {
		// Reconstructing stripe 0 needs both failed columns: unrecoverable.
		_, err := a.view(0, false).readSolve(p, a.newScratch(), 0, tSec, a.Role(0, 0), make([]byte, tSec))
		if !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("solve over a double failure = %v, want ErrArrayFailed", err)
		}
	})
	if !a.Lost() {
		t.Fatal("double failure did not lose the array")
	}
}

func TestMixedSectorSizesRejected(t *testing.T) {
	e := sim.New()
	devs := []Dev{NewMemDev(64, 512), NewMemDev(64, 1024)}
	if _, err := New(e, devs, Config{Level: Level0, StripeUnitSectors: 4}, nil); err == nil {
		t.Fatal("expected error for mixed sector sizes")
	}
}

func TestLevel1OddWidthRejected(t *testing.T) {
	e := sim.New()
	devs := []Dev{NewMemDev(64, 512), NewMemDev(64, 512), NewMemDev(64, 512)}
	if _, err := New(e, devs, Config{Level: Level1, StripeUnitSectors: 4}, nil); err == nil {
		t.Fatal("expected error for odd level-1 width")
	}
}

func TestQuickRandomWritesReadBack(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 7, Level5)
	shadow := make([]byte, a.Sectors()*int64(tSec))
	rng := rand.New(rand.NewSource(11))
	f := func(lbaRaw uint16, nRaw uint8) bool {
		n := int(nRaw%25) + 1
		lba := int64(lbaRaw) % (a.Sectors() - int64(n))
		buf := make([]byte, n*tSec)
		_, _ = rng.Read(buf)
		ok := true
		runProc(e, func(p *sim.Proc) {
			_ = a.Write(p, lba, buf)
			copy(shadow[lba*tSec:], buf)
			got, _ := a.Read(p, lba, n)
			ok = bytes.Equal(got, buf)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	// Full-volume comparison against the shadow copy.
	var vol []byte
	runProc(e, func(p *sim.Proc) { vol, _ = a.Read(p, 0, int(a.Sectors())) })
	if !bytes.Equal(vol, shadow) {
		t.Fatal("array diverged from shadow copy")
	}
}

func TestCheckParityDetectsCorruption(t *testing.T) {
	e := sim.New()
	a, mems := newArray(t, e, 5, Level5)
	runProc(e, func(p *sim.Proc) {
		_ = a.Write(p, 0, patterned(40*tSec, 8))
		mems[2].Corrupt(100)
		if bad := a.CheckParity(p); bad != 1 {
			t.Errorf("CheckParity found %d bad stripes, want 1", bad)
		}
	})
}

func TestXORStatsWithEngine(t *testing.T) {
	// The array accepts a hardware XOR engine; verify it is exercised.
	e := sim.New()
	cnt := &countingXOR{}
	devs := make([]Dev, 5)
	for i := range devs {
		devs[i] = NewMemDev(256, tSec)
	}
	a, err := New(e, devs, Config{Level: Level5, StripeUnitSectors: tUnit}, cnt)
	if err != nil {
		t.Fatal(err)
	}
	runProc(e, func(p *sim.Proc) { _ = a.Write(p, 0, patterned(tSec, 1)) })
	if cnt.ops == 0 {
		t.Fatal("XOR engine not used")
	}
}

type countingXOR struct{ ops int }

func (c *countingXOR) XORTo(p *sim.Proc, dst []byte, srcs ...[]byte) {
	c.ops++
	SoftXOR{}.XORTo(p, dst, srcs...)
}

func (c *countingXOR) XORInto(p *sim.Proc, dst, src []byte) {
	c.ops++
	SoftXOR{}.XORInto(p, dst, src)
}

func (c *countingXOR) Fold(p *sim.Proc, acc, src []byte) { SoftXOR{}.Fold(p, acc, src) }

func (c *countingXOR) Result(*sim.Proc, int) { c.ops++ }
