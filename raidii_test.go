package raidii

import (
	"errors"
	"testing"

	"raidii/internal/raid"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	const n = 4 << 20
	_, err = srv.Simulate(func(task *Task) error {
		if err := task.FormatFS(); err != nil {
			return err
		}
		if err := task.Board(0).Mkdir("/d"); err != nil {
			return err
		}
		f, err := task.Board(0).Create("/d/file")
		if err != nil {
			return err
		}
		if _, err := f.Write(0, make([]byte, n)); err != nil {
			return err
		}
		if err := task.Sync(); err != nil {
			return err
		}
		sz, err := f.Size()
		if err != nil {
			return err
		}
		if sz != n {
			t.Errorf("size = %d, want %d", sz, n)
		}
		_, dur, err := f.Read(0, n)
		if err != nil {
			return err
		}
		if dur <= 0 {
			t.Error("read took no simulated time")
		}
		ents, err := task.Board(0).ReadDir("/d")
		if err != nil {
			return err
		}
		if len(ents) != 1 || ents[0].Name != "file" {
			t.Errorf("ReadDir = %v", ents)
		}
		fi, err := task.Board(0).Stat("/d/file")
		if err != nil {
			return err
		}
		if fi.Size != n {
			t.Errorf("Stat size = %d", fi.Size)
		}
		return task.Board(0).Remove("/d/file")
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Now() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestOptionsShapeTheMachine(t *testing.T) {
	srv, err := NewServer(WithBoards(2), WithDisksPerString(2), WithStripeUnitKB(32))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Sys().Boards); got != 2 {
		t.Fatalf("boards = %d", got)
	}
	if got := srv.Sys().Boards[0].NumDisks(); got != 16 {
		t.Fatalf("disks = %d", got)
	}
	if got := srv.Sys().Boards[0].Array.StripeUnitSectors(); got != 64 {
		t.Fatalf("stripe unit sectors = %d", got)
	}

	srv2, err := NewServer(WithRAIDLevel(0))
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Sys().Boards[0].Array.Level() != raid.Level0 {
		t.Fatal("level option ignored")
	}
}

func TestSimulateAccumulatesTime(t *testing.T) {
	srv, err := NewServer(Fig8Geometry())
	if err != nil {
		t.Fatal(err)
	}
	d1, err := srv.Simulate(func(task *Task) error {
		task.Wait(1e9)
		return nil
	})
	if err != nil || d1.Seconds() < 1 {
		t.Fatalf("d1 = %v err = %v", d1, err)
	}
	before := srv.Now()
	d2, _ := srv.Simulate(func(task *Task) error {
		task.Wait(5e8)
		return nil
	})
	if srv.Now() <= before || d2.Seconds() < 0.5 {
		t.Fatalf("time did not accumulate: now=%v d2=%v", srv.Now(), d2)
	}
}

func TestHardwareOpsViaPublicAPI(t *testing.T) {
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	dur, err := srv.Simulate(func(task *Task) error {
		if err := task.Board(0).HardwareWrite(0, 1<<20); err != nil {
			return err
		}
		return task.Board(0).HardwareRead(0, 1<<20)
	})
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("hardware ops took no time")
	}
}

// TestHardwareIOOutsideArrayIsInvalid: hardware I/O reaching outside the
// array returns ErrInvalid instead of stopping the simulation, and the next
// in-range call succeeds.
func TestHardwareIOOutsideArrayIsInvalid(t *testing.T) {
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	var capacity int64
	if _, err := srv.Simulate(func(task *Task) error {
		capacity = task.Board(0).ArrayCapacity()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		off  int64
		size int
	}{{capacity, 1 << 20}, {capacity - 512, 1024}, {-512, 512}, {0, -1}} {
		for _, op := range []func(*Board, int64, int) error{(*Board).HardwareRead, (*Board).HardwareWrite} {
			_, err := srv.Simulate(func(task *Task) error { return op(task.Board(0), r.off, r.size) })
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("%d bytes at %d: err = %v, want ErrInvalid", r.size, r.off, err)
			}
		}
	}
	if _, err := srv.Simulate(func(task *Task) error {
		return task.Board(0).HardwareRead(capacity-1<<20, 1<<20)
	}); err != nil {
		t.Fatalf("in-range read after the refused ones: %v", err)
	}
}

// TestExperimentRunnersSmoke exercises every experiment runner at reduced
// scale, checking the qualitative shape the paper reports.
func TestExperimentRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	t.Run("Fig5", func(t *testing.T) {
		fig, err := Fig5([]int{128, 1024})
		if err != nil {
			t.Fatal(err)
		}
		reads, writes := fig.Series[0], fig.Series[1]
		if reads.At(1024) <= reads.At(128) {
			t.Error("reads should grow with request size")
		}
		if writes.At(1024) > reads.At(1024) {
			t.Error("writes should not beat reads")
		}
	})
	t.Run("Table1", func(t *testing.T) {
		r, err := Table1()
		if err != nil {
			t.Fatal(err)
		}
		if r.ReadMBps < 26 || r.ReadMBps > 34 {
			t.Errorf("read = %.1f, want ~31", r.ReadMBps)
		}
		if r.WriteMBps < 17 || r.WriteMBps > 26 {
			t.Errorf("write = %.1f, want ~23", r.WriteMBps)
		}
		if r.WriteMBps >= r.ReadMBps {
			t.Error("writes should trail reads")
		}
	})
	t.Run("Table2", func(t *testing.T) {
		r, err := Table2()
		if err != nil {
			t.Fatal(err)
		}
		if r.RAIDIIFifteen < 400 {
			t.Errorf("RAID-II 15-disk = %.0f, paper reports over 400", r.RAIDIIFifteen)
		}
		if r.RAIDIIPercent <= r.RAIDIPercent {
			t.Error("RAID-II should deliver a higher fraction than RAID-I")
		}
	})
	t.Run("Fig6", func(t *testing.T) {
		fig, err := Fig6([]int{16, 1024})
		if err != nil {
			t.Fatal(err)
		}
		s := fig.Series[0]
		if s.At(1024) < 35 || s.At(16) > 12 {
			t.Errorf("loopback shape wrong: %v", s.Points)
		}
	})
	t.Run("Fig7", func(t *testing.T) {
		fig, err := Fig7([]int{1, 3, 5})
		if err != nil {
			t.Fatal(err)
		}
		meas, lin := fig.Series[0], fig.Series[1]
		if meas.At(5) > 3.3 {
			t.Errorf("string should cap near 3.2, got %.2f", meas.At(5))
		}
		if lin.At(5) < meas.At(5)*1.5 {
			t.Error("linear reference should exceed the saturated string")
		}
	})
	t.Run("FleetScaling", func(t *testing.T) {
		fig, err := FleetScaling([]int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range fig.Series {
			if s.At(2) <= s.At(1) {
				t.Errorf("%s should scale with hosts: %v", s.Name, s.Points)
			}
		}
	})
}
