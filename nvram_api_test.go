package raidii

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// TestNVRAMThroughPublicAPI exercises the battery-backed region's surface:
// WithNVRAM, File.WriteDurable, Board.NVRAMStats and Board.DrainNVRAM.
func TestNVRAMThroughPublicAPI(t *testing.T) {
	srv, err := NewServer(WithDisksPerString(1), WithNVRAM(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i*3 + 1)
	}
	_, err = srv.Simulate(func(task *Task) error {
		if err := task.FormatFS(); err != nil {
			return err
		}
		f, err := task.Board(0).Create("/durable")
		if err != nil {
			return err
		}
		if err := task.Sync(); err != nil {
			return err
		}
		var worst time.Duration
		for i := 0; i < 16; i++ {
			d, err := f.WriteDurable(int64(i)*4096, payload)
			if err != nil {
				return err
			}
			if d > worst {
				worst = d
			}
		}
		bd := task.Board(0)
		st := bd.NVRAMStats()
		if st.Capacity != 1<<20 || st.Images != 1 {
			t.Errorf("region = %+v, want 1 MB holding one 896 KB segment image (two 448 KB stripes of the 8-disk array)", st)
		}
		if st.Log.Commits != 16 || st.Log.Degraded != 0 {
			t.Errorf("log stats = %+v, want 16 committed, none degraded", st.Log)
		}
		// A durable ack is a DRAM landing and a commit into the open
		// segment, not a segment seal: even the worst of 16 must stay far
		// below a disk-bound synchronous write.
		if worst > 20*time.Millisecond {
			t.Errorf("worst staged ack = %v, want well under 20ms", worst)
		}
		if err := bd.DrainNVRAM(); err != nil {
			return err
		}
		if held := bd.NVRAMStats().Held; held != 0 {
			t.Errorf("drain left %d images holding blocks the disks lack", held)
		}
		for i := 0; i < 16; i++ {
			got, _, err := f.Read(int64(i)*4096, 4096)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("record %d read back wrong after drain", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNVRAMBackpressureThroughPublicAPI: a region of one 64 KB segment
// holds one image, so a burst of durable writes fills it, and a write that
// finds it full waits for its seal — durably, and visibly in the stats —
// instead of failing or sealing a partial segment of its own.
func TestNVRAMBackpressureThroughPublicAPI(t *testing.T) {
	srv, err := NewServer(WithDisksPerString(1), WithSegmentKB(64), WithNVRAM(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i*5 + 2)
	}
	const n = 32
	_, err = srv.Simulate(func(task *Task) error {
		if err := task.FormatFS(); err != nil {
			return err
		}
		f, err := task.Board(0).Create("/burst")
		if err != nil {
			return err
		}
		if err := task.Sync(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if _, err := f.WriteDurable(int64(i)*4096, payload); err != nil {
				return err
			}
		}
		// Fifteen blocks fill a segment: a write after each seal waits.
		st := task.Board(0).NVRAMStats()
		if st.Images != 1 || st.Log.Commits != n || st.Log.Degraded == 0 || st.Log.Degraded >= n/4 {
			t.Errorf("region %+v: want one image, %d commits, and a few writes waiting for it", st, n)
		}
		if err := task.Board(0).DrainNVRAM(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			got, _, err := f.Read(int64(i)*4096, 4096)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("record %d lost under back-pressure", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRAID6DoubleFailureThroughPublicAPI: a Level-6 server keeps serving
// hardware reads through two scripted overlapping disk failures, and a
// third failure surfaces the typed ErrArrayFailed.
func TestRAID6DoubleFailureThroughPublicAPI(t *testing.T) {
	srv, err := NewServer(WithDisksPerString(1), WithRAIDLevel(6),
		WithFaultPlan(FaultPlan{}.
			DiskFailAt(100*time.Millisecond, 0, 1).
			DiskFailAt(200*time.Millisecond, 0, 5)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.Simulate(func(task *Task) error {
		bd := task.Board(0)
		for i := 0; i < 12; i++ {
			if err := bd.HardwareRead(int64(i)*(1<<20), 1<<20); err != nil {
				return err
			}
		}
		if !bd.DiskFailed(1) || !bd.DiskFailed(5) {
			t.Fatal("scripted double failure did not escalate")
		}
		st := bd.ArrayStats()
		if st.DiskFailures != 2 || st.DegradedReads == 0 {
			t.Fatalf("stats = %+v, want DiskFailures=2 and DegradedReads>0", st)
		}
		// A third concurrent failure exceeds P+Q redundancy.
		if err := bd.FailDisk(3); err != nil {
			return err
		}
		if err := bd.HardwareRead(0, 1<<20); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("triple-failure read = %v, want ErrArrayFailed", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
