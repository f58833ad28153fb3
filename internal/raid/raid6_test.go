package raid

import (
	"bytes"
	"errors"
	"testing"

	"raidii/internal/sim"
)

// TestLevel6RoundTripAndParity: healthy Level 6 writes leave both parity
// columns consistent and reads return the written bytes.
func TestLevel6RoundTripAndParity(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 6, Level6)
	data := patterned(int(a.Sectors())*tSec, 11)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, data); err != nil {
			t.Fatal(err)
		}
		got, err := a.Read(p, 0, int(a.Sectors()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip failed")
		}
		if bad := a.CheckParity(p); bad != 0 {
			t.Fatalf("%d inconsistent stripes on healthy array", bad)
		}
	})
}

// TestLevel6DoubleDegradedReadAllPairs: every pair of concurrent device
// failures must still serve every logical sector correctly — the rotating
// layout makes each pair exercise a different solve case per stripe
// (data+data, data+P, data+Q, P+Q).
func TestLevel6DoubleDegradedReadAllPairs(t *testing.T) {
	const width = 6
	for i := 0; i < width; i++ {
		for j := i + 1; j < width; j++ {
			e := sim.New()
			a, _ := newArray(t, e, width, Level6)
			data := patterned(int(a.Sectors())*tSec, byte(i*7+j))
			runProc(e, func(p *sim.Proc) {
				if err := a.Write(p, 0, data); err != nil {
					t.Fatal(err)
				}
				if err := a.FailDisk(i); err != nil {
					t.Fatal(err)
				}
				if err := a.FailDisk(j); err != nil {
					t.Fatal(err)
				}
				got, err := a.Read(p, 0, int(a.Sectors()))
				if err != nil {
					t.Fatalf("double-degraded read (%d,%d): %v", i, j, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("double-degraded read (%d,%d) returned wrong bytes", i, j)
				}
			})
			if a.Lost() {
				t.Fatalf("two failures (%d,%d) must not exceed Level 6 redundancy", i, j)
			}
			if a.Stats().DegradedReads == 0 {
				t.Fatalf("pair (%d,%d) served no degraded reads", i, j)
			}
		}
	}
}

// TestLevel6TripleFailureLosesStripes: a third concurrent failure exceeds
// P+Q redundancy in every stripe; reads and writes surface the typed error
// instead of fabricating zeros, and write nothing.  Once one of the three
// devices returns, every stripe is short two columns again and reads back.
func TestLevel6TripleFailureLosesStripes(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 6, Level6)
	data := patterned(40*tSec, 4)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, data); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 2, 4} {
			if err := a.FailDisk(i); err != nil {
				t.Fatal(err)
			}
		}
		if !a.Lost() {
			t.Fatal("three failures did not lose the array")
		}
		if _, err := a.Read(p, 0, 40); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("read error = %v, want ErrArrayFailed", err)
		}
		if err := a.Write(p, 0, data); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("write error = %v, want ErrArrayFailed", err)
		}
		a.ReturnDisk(4)
		if a.Lost() {
			t.Fatal("two failures lose a Level 6 array")
		}
		if got, err := a.Read(p, 0, 40); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read after the return: wrong bytes (err %v)", err)
		}
	})
}

// TestLevel6SmallWriteUpdatesQ: the healthy read-modify-write path must
// fold the delta into both parity columns; a later double-degraded read of
// the updated range proves Q was maintained.
func TestLevel6SmallWriteUpdatesQ(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 6, Level6)
	base := patterned(int(a.Sectors())*tSec, 9)
	update := patterned(2*tSec, 200)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, base); err != nil {
			t.Fatal(err)
		}
		// Two sectors inside one stripe unit: the RMW path.
		if err := a.Write(p, 1, update); err != nil {
			t.Fatal(err)
		}
		if a.Stats().SmallWrites == 0 {
			t.Fatal("partial-stripe write did not take the RMW path")
		}
		if bad := a.CheckParity(p); bad != 0 {
			t.Fatalf("%d inconsistent stripes after RMW", bad)
		}
		copy(base[1*tSec:], update)
		// Fail the two devices holding the updated data column and P for
		// stripe 0, forcing the read to solve through Q.
		pdev := a.colDev(0, a.dataDisks())
		ddev := a.colDev(0, 0)
		if err := a.FailDisk(pdev); err != nil {
			t.Fatal(err)
		}
		if err := a.FailDisk(ddev); err != nil {
			t.Fatal(err)
		}
		got, err := a.Read(p, 0, int(a.Sectors()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base) {
			t.Fatal("Q-solved read returned stale bytes: RMW did not update Q")
		}
	})
}

// TestLevel6DegradedWritesThenDoubleRebuild: writes while two devices are
// down land in the surviving columns and parity; rebuilding both (the
// first rebuild running double-degraded) restores a fully healthy,
// parity-consistent array with the degraded writes intact.
func TestLevel6DegradedWritesThenDoubleRebuild(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 6, Level6)
	data := patterned(int(a.Sectors())*tSec, 3)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := a.FailDisk(1); err != nil {
			t.Fatal(err)
		}
		if err := a.FailDisk(4); err != nil {
			t.Fatal(err)
		}
		// Overwrite a range spanning several stripes while double-degraded:
		// reconstruct-writes must keep P and Q correct for the lost columns.
		update := patterned(30*tSec, 77)
		if err := a.Write(p, 5, update); err != nil {
			t.Fatal(err)
		}
		copy(data[5*tSec:], update)

		// First rebuild runs with the second failure still outstanding.
		if _, err := a.Reconstruct(p, 1, NewMemDev(256, tSec)); err != nil {
			t.Fatalf("double-degraded rebuild: %v", err)
		}
		if _, err := a.Reconstruct(p, 4, NewMemDev(256, tSec)); err != nil {
			t.Fatalf("second rebuild: %v", err)
		}
		got, err := a.Read(p, 0, int(a.Sectors()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("post-rebuild contents wrong")
		}
		if bad := a.CheckParity(p); bad != 0 {
			t.Fatalf("%d inconsistent stripes after double rebuild", bad)
		}
	})
	if a.Failed(1) || a.Failed(4) || a.Lost() {
		t.Fatal("array not healthy after both rebuilds")
	}
}

// TestLevel6ScrubRepairsLatentColumns: the patrol solves latent columns
// through P+Q and rewrites them in place — including a latent sector on
// the Q column itself.
func TestLevel6ScrubRepairsLatentColumns(t *testing.T) {
	e := sim.New()
	a, mems := newArray(t, e, 6, Level6)
	data := patterned(int(a.Sectors())*tSec, 6)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, data); err != nil {
			t.Fatal(err)
		}
	})
	// Latent errors on a data column of stripe 0 and on stripe 1's Q column.
	ddev, dlba := a.colDev(0, 1), a.unitLBA(0)
	mems[ddev].AddLatentError(dlba, 1)
	qdev, qlba := a.colDev(1, a.dataDisks()+1), a.unitLBA(1)
	mems[qdev].AddLatentError(qlba, 1)

	sc, err := a.StartScrub(ScrubConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var repairs uint64
	runProc(e, func(p *sim.Proc) {
		_, repairs = sc.Wait(p)
	})
	if repairs < 2 {
		t.Fatalf("scrub repaired %d columns, want >= 2", repairs)
	}
	runProc(e, func(p *sim.Proc) {
		got, err := a.Read(p, 0, int(a.Sectors()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("post-scrub read returned wrong bytes")
		}
		if bad := a.CheckParity(p); bad != 0 {
			t.Fatalf("%d inconsistent stripes after scrub", bad)
		}
	})
	if a.Stats().DiskFailures != 0 {
		t.Fatal("patrol must not escalate latent errors to disk failures")
	}
}

// TestLevel5SecondFailureDuringRebuild is the regression test for the
// double-failure hole: a second concurrent failure while a hot rebuild is
// in flight must surface ErrArrayFailed from the rebuild and from every
// later read and write — never zeros, never a panic.
func TestLevel5SecondFailureDuringRebuild(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	data := patterned(200*tSec, 8)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := a.FailDisk(1); err != nil {
			t.Fatal(err)
		}
		rb, err := a.ReplaceDisk(1, NewMemDev(256, tSec))
		if err != nil {
			t.Fatal(err)
		}
		// Second failure lands while the rebuild streams: redundancy is
		// exhausted at a single-parity level.
		if err := a.FailDisk(2); err != nil {
			t.Fatal(err)
		}
		if _, err := rb.Wait(p); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("rebuild error = %v, want ErrArrayFailed", err)
		}
		if !a.Lost() {
			t.Fatal("second concurrent failure did not lose the array")
		}
		if _, err := a.Read(p, 0, 40); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("read error = %v, want ErrArrayFailed", err)
		}
		if err := a.Write(p, 0, data[:4*tSec]); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("write error = %v, want ErrArrayFailed", err)
		}
	})
}
