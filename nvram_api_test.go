package raidii

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// TestNVRAMThroughPublicAPI exercises the battery-backed staging surface:
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
		if st.Region.Capacity != 1<<20 {
			t.Errorf("region capacity = %d, want %d", st.Region.Capacity, 1<<20)
		}
		if st.Log.Staged != 16 || st.Log.Commits != 16 || st.Log.Degraded != 0 {
			t.Errorf("log stats = %+v, want 16 staged and committed, none degraded", st.Log)
		}
		// A staged ack is a DRAM landing and a write into the open segment,
		// not a segment seal: even the worst of 16 must stay far below a
		// disk-bound synchronous write.
		if worst > 20*time.Millisecond {
			t.Errorf("worst staged ack = %v, want well under 20ms", worst)
		}
		if err := bd.DrainNVRAM(); err != nil {
			return err
		}
		if used := bd.NVRAMStats().Region.Used; used != 0 {
			t.Errorf("drain left %d bytes staged", used)
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

// TestNVRAMBackpressureThroughPublicAPI: a region too small for the burst
// degrades the overflow to synchronous writes — durably, and visibly in
// the stats — instead of failing or buffering unaccounted bytes.
func TestNVRAMBackpressureThroughPublicAPI(t *testing.T) {
	srv, err := NewServer(WithDisksPerString(1), WithNVRAM(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i*5 + 2)
	}
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
		for i := 0; i < 8; i++ {
			if _, err := f.WriteDurable(int64(i)*4096, payload); err != nil {
				return err
			}
		}
		// Two records fill the region; every third write degrades, and its
		// seal releases the two before it.
		st := task.Board(0).NVRAMStats()
		if st.Log.Staged != 6 || st.Log.Degraded != 2 {
			t.Errorf("log stats = %+v, want 6 staged + 2 degraded", st.Log)
		}
		if st.Region.Rejected != 2 {
			t.Errorf("region rejected %d appends, want 2", st.Region.Rejected)
		}
		if err := task.Board(0).DrainNVRAM(); err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
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
