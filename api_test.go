package raidii

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestBoardScopedOps exercises the full file system surface through the
// Board handle on a board other than 0, and checks the per-board file
// systems are independent.
func TestBoardScopedOps(t *testing.T) {
	srv, err := NewServer(WithBoards(2), WithDisksPerString(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.Simulate(func(task *Task) error {
		if task.NumBoards() != 2 {
			t.Fatalf("NumBoards() = %d, want 2", task.NumBoards())
		}
		if err := task.FormatFS(); err != nil {
			return err
		}
		b1 := task.Board(1)
		if b1.Index() != 1 {
			t.Fatalf("Board(1).Index() = %d", b1.Index())
		}
		if err := b1.Mkdir("/d"); err != nil {
			return err
		}
		f, err := b1.Create("/d/file")
		if err != nil {
			return err
		}
		if _, err := f.Write(0, make([]byte, 256<<10)); err != nil {
			return err
		}
		if err := b1.Sync(); err != nil {
			return err
		}
		if err := b1.Rename("/d/file", "/d/file2"); err != nil {
			return err
		}
		ents, err := b1.ReadDir("/d")
		if err != nil {
			return err
		}
		if len(ents) != 1 || ents[0].Name != "file2" {
			t.Fatalf("board 1 /d = %+v, want one entry \"file2\"", ents)
		}
		info, err := b1.Stat("/d/file2")
		if err != nil {
			return err
		}
		if info.Size != 256<<10 {
			t.Fatalf("board 1 file size = %d, want %d", info.Size, 256<<10)
		}
		// The boards hold independent file systems: board 0 must not see
		// board 1's tree.
		if _, err := task.Board(0).Stat("/d/file2"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("board 0 sees board 1's file: %v", err)
		}
		// And the other way round: a file created on board 0 is not on
		// board 1.
		if _, err := task.Board(0).Create("/only0"); err != nil {
			return err
		}
		if _, err := task.Board(0).Stat("/only0"); err != nil {
			t.Fatalf("board 0 does not see its own file: %v", err)
		}
		if _, err := b1.Stat("/only0"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("board 1 sees board 0's file: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSimulateReturnsModelPanic: an out-of-range board or server index
// panics inside the task process.  Simulate must hand that back as an error
// (a runtime.Error, through ProcPanic.Unwrap) with no process left live, and
// every later Simulate on the stopped machine must fail without running.
func TestSimulateReturnsModelPanic(t *testing.T) {
	wantStopped := func(what string, err error, live int, again func(ran *bool) error) {
		t.Helper()
		var re runtime.Error
		if !errors.As(err, &re) {
			t.Errorf("%s: Simulate returned %v, want a runtime.Error", what, err)
		}
		if live != 0 {
			t.Errorf("%s: %d processes live after the panic", what, live)
		}
		ran := false
		if err2 := again(&ran); !errors.Is(err2, err) || ran {
			t.Errorf("%s: the next Simulate returned %v (ran: %v), want the same error without running", what, err2, ran)
		}
	}

	srv, err := NewServer(WithDisksPerString(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.Simulate(func(task *Task) error {
		task.Board(3)
		return nil
	})
	wantStopped("Board(3) on one board", err, srv.Sys().Eng.Live(), func(ran *bool) error {
		_, err := srv.Simulate(func(*Task) error { *ran = true; return nil })
		return err
	})

	cl, err := NewCluster(WithServers(4), WithDisksPerString(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Simulate(func(task *ClusterTask) error {
		task.KillServer(9)
		return nil
	})
	wantStopped("KillServer(9) on four servers", err, cl.Fleet().Eng.Live(), func(ran *bool) error {
		_, err := cl.Simulate(func(*ClusterTask) error { *ran = true; return nil })
		return err
	})
}

// TestSentinelErrorsThroughAPI checks that errors.Is sees the lfs
// sentinels through every wrapping layer of the public API.
func TestSentinelErrorsThroughAPI(t *testing.T) {
	srv, err := NewServer(WithDisksPerString(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.Simulate(func(task *Task) error {
		// Before FormatFS every file-system call reports ErrNoFS rather than
		// dereferencing the missing file system.
		_, errCreate := task.Board(0).Create("/x")
		_, errOpen := task.Board(0).Open("/x")
		_, errReadDir := task.Board(0).ReadDir("/")
		_, errStat := task.Board(0).Stat("/")
		_, errClean := task.Board(0).Clean(1)
		for op, err := range map[string]error{
			"Create": errCreate, "Open": errOpen, "Mkdir": task.Board(0).Mkdir("/d"), "Remove": task.Board(0).Remove("/x"),
			"Rename": task.Board(0).Rename("/x", "/y"), "ReadDir": errReadDir, "Stat": errStat, "Clean": errClean,
		} {
			if !errors.Is(err, ErrNoFS) {
				t.Errorf("%s on an unformatted board = %v, want ErrNoFS", op, err)
			}
		}
		if err := task.FormatFS(); err != nil {
			return err
		}
		if _, err := task.Board(0).Open("/missing"); !errors.Is(err, ErrNotExist) {
			t.Errorf("Open(missing) = %v, want ErrNotExist", err)
		}
		if _, err := task.Board(0).Create("/f"); err != nil {
			return err
		}
		if _, err := task.Board(0).Create("/f"); !errors.Is(err, ErrExist) {
			t.Errorf("second Create = %v, want ErrExist", err)
		}
		if err := task.Board(0).Remove("/missing"); !errors.Is(err, ErrNotExist) {
			t.Errorf("Remove(missing) = %v, want ErrNotExist", err)
		}
		if err := task.Board(0).Mkdir("/dir"); err != nil {
			return err
		}
		if _, err := task.Board(0).Create("/dir/child"); err != nil {
			return err
		}
		if err := task.Board(0).Remove("/dir"); !errors.Is(err, ErrNotEmpty) {
			t.Errorf("Remove(non-empty dir) = %v, want ErrNotEmpty", err)
		}
		if _, err := task.Board(0).Open("/f/x"); !errors.Is(err, ErrNotDir) {
			t.Errorf("Open through file = %v, want ErrNotDir", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteReturnsDuration checks File.Write's transfer timing is
// symmetric with Read: simulated, positive, and scaling with size.
func TestWriteReturnsDuration(t *testing.T) {
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.Simulate(func(task *Task) error {
		if err := task.FormatFS(); err != nil {
			return err
		}
		f, err := task.Board(0).Create("/f")
		if err != nil {
			return err
		}
		small, err := f.Write(0, make([]byte, 64<<10))
		if err != nil {
			return err
		}
		big, err := f.Write(0, make([]byte, 8<<20))
		if err != nil {
			return err
		}
		if small <= 0 || big <= 0 {
			t.Fatalf("write durations %v / %v, want > 0", small, big)
		}
		if big <= small {
			t.Fatalf("8 MB write (%v) not slower than 64 KB write (%v)", big, small)
		}
		if err := task.Sync(); err != nil {
			return err
		}
		_, rd, err := f.Read(0, 8<<20)
		if err != nil {
			return err
		}
		// Reads stream from disk, writes land in segment buffers; both are
		// charged simulated time of the same order for the same bytes.
		if big > 100*rd || rd > 100*big {
			t.Fatalf("8 MB write %v vs read %v: implausible asymmetry", big, rd)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLatentErrorEscalatesThroughAPI is the PR's acceptance path: a latent
// sector error on one drive is retried by the SCSI controller, escalates to
// a disk failure at the array, and the read still returns the original
// bytes via parity reconstruction — all observable through the public
// fault surface.
func TestLatentErrorEscalatesThroughAPI(t *testing.T) {
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	b := srv.Sys().Boards[0]
	const nSec = 40
	data := make([]byte, nSec*512)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	_, err = srv.Simulate(func(task *Task) error {
		p := task.p
		if err := b.Array.Write(p, 0, data); err != nil {
			return err
		}
		// Stripe 0's data column 0 lives on device 0 (left-symmetric
		// layout), so sector 1 of drive 0 holds bytes the read must cover.
		task.Board(0).LatentError(0, 1, 1)
		if task.Board(0).DiskFailed(0) {
			t.Error("latent error alone must not fail the disk")
		}
		got, err := b.Array.Read(p, 0, nSec)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("read over latent error returned wrong bytes")
		}
		if !task.Board(0).DiskFailed(0) {
			t.Error("persistent medium error did not escalate to a disk failure")
		}
		st := task.Board(0).ArrayStats()
		if st.DeviceErrors == 0 || st.DiskFailures != 1 {
			t.Errorf("stats = %+v, want DeviceErrors>0 and DiskFailures=1", st)
		}
		if st.DegradedReads == 0 {
			t.Error("escalated read did not use the degraded path")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHotRebuildThroughAPI drives FailDisk / ReplaceDisk / HotRebuild.Wait
// through the Board handle and checks the array heals.
func TestHotRebuildThroughAPI(t *testing.T) {
	srv, err := NewServer(WithDisksPerString(1))
	if err != nil {
		t.Fatal(err)
	}
	b := srv.Sys().Boards[0]
	const nSec = 64
	data := make([]byte, nSec*512)
	for i := range data {
		data[i] = byte(i * 13)
	}
	_, err = srv.Simulate(func(task *Task) error {
		p := task.p
		if err := b.Array.Write(p, 0, data); err != nil {
			return err
		}
		bd := task.Board(0)
		if err := bd.FailDisk(2); err != nil {
			return err
		}
		if !bd.DiskFailed(2) {
			t.Fatal("FailDisk did not mark the device failed")
		}
		rb, err := bd.ReplaceDisk(2)
		if err != nil {
			return err
		}
		stripes, err := rb.Wait()
		if err != nil {
			return err
		}
		if stripes == 0 || !rb.Done() {
			t.Fatalf("rebuild: stripes=%d done=%v", stripes, rb.Done())
		}
		if bd.DiskFailed(2) {
			t.Fatal("device still failed after rebuild")
		}
		got, err := b.Array.Read(p, 0, nSec)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Fatal("rebuilt array returned wrong bytes")
		}
		if bd.ArrayStats().RebuildStripes == 0 {
			t.Fatal("rebuilt stripes not counted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultPlanValidatedAtAssembly: a plan naming hardware the config does
// not have is rejected by NewServer, not discovered mid-run.
func TestFaultPlanValidatedAtAssembly(t *testing.T) {
	_, err := NewServer(WithFaultPlan(FaultPlan{}.DiskFailAt(time.Second, 9, 0)))
	if err == nil {
		t.Fatal("NewServer accepted a fault plan naming a missing board")
	}
	_, err = NewServer(WithDisksPerString(1),
		WithFaultPlan(FaultPlan{}.DiskFailAt(time.Second, 0, 99)))
	if err == nil {
		t.Fatal("NewServer accepted a fault plan naming a missing disk")
	}
	_, err = NewServer(WithDisksPerString(1),
		WithFaultPlan(FaultPlan{}.ServerDownAt(time.Second, 1)))
	if err == nil {
		t.Fatal("NewServer accepted a fault plan naming a second server")
	}
}

// TestFaultPlansCompose: two WithFaultPlan options arm both plans' events,
// in either order.  The second used to replace the first.
func TestFaultPlansCompose(t *testing.T) {
	disk := FaultPlan{}.StringStallAt(time.Millisecond, 0, 3, time.Second)
	net := FaultPlan{}.LinkDownAt(time.Millisecond, PortUltranetRing, 0)
	for _, order := range [][2]FaultPlan{{disk, net}, {net, disk}} {
		srv, err := NewServer(WithDisksPerString(1), WithFaultPlan(order[0]), WithFaultPlan(order[1]))
		if err != nil {
			t.Fatal(err)
		}
		sys := srv.Sys()
		_, err = srv.Simulate(func(task *Task) error {
			task.Wait(2 * time.Millisecond)
			if !sys.Ultra.Port.Down {
				t.Errorf("plan %v then %v: the ring is up", order[0].Events[0].Kind, order[1].Events[0].Kind)
			}
			if sys.Boards[0].Disks[3].Drive.Port.Stall(task.p.Now()) == 0 {
				t.Errorf("plan %v then %v: disk 3 is not stalled", order[0].Events[0].Kind, order[1].Events[0].Kind)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterStripedFileAPI exercises the public Cluster surface: striped
// create/write/read/open, per-host Tasks through Server(i), and the
// imperative KillServer/RestoreServer/RebuildServer whole-host fault cycle
// with cross-server parity absorbing the outage.
func TestClusterStripedFileAPI(t *testing.T) {
	cl, err := NewCluster(WithServers(3), WithDisksPerString(1), WithStripeFragmentKB(64))
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumServers() != 3 {
		t.Fatalf("NumServers() = %d, want 3", cl.NumServers())
	}
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 17)
	}
	_, err = cl.Simulate(func(task *ClusterTask) error {
		if err := task.FormatFS(); err != nil {
			return err
		}
		sb, err := task.StripeBytes()
		if err != nil {
			return err
		}
		// Three hosts with cross parity: two 64 KB data fragments per stripe.
		if sb != 128<<10 {
			t.Errorf("StripeBytes() = %d, want %d", sb, 128<<10)
		}
		f, err := task.Create("clip")
		if err != nil {
			return err
		}
		if _, err := f.Write(0, data); err != nil {
			return err
		}
		if err := task.Sync(); err != nil {
			return err
		}

		// Open sees the same file; Size is the logical striped size.
		g, err := task.Open("clip")
		if err != nil {
			return err
		}
		if g.Name() != "clip" {
			t.Errorf("Name() = %q, want %q", g.Name(), "clip")
		}
		if sz, err := g.Size(); err != nil || sz != int64(len(data)) {
			t.Errorf("Size() = %d, %v, want %d", sz, err, len(data))
		}
		got, dur, err := g.Read(3<<10, 512<<10)
		if err != nil {
			return err
		}
		if dur <= 0 {
			t.Error("striped read consumed no simulated time")
		}
		if !bytes.Equal(got, data[3<<10:3<<10+512<<10]) {
			t.Error("striped read returned wrong bytes")
		}
		// Reads past end of file come back short, like File.Read.
		if got, _, err := g.Read(int64(len(data))-4<<10, 64<<10); err != nil || len(got) != 4<<10 {
			t.Errorf("tail read = %d bytes, %v, want %d", len(got), err, 4<<10)
		}

		// Server(i) scopes an ordinary single-host Task: the striping layer's
		// backing files live in each host's board-0 LFS.
		for i := 0; i < task.NumServers(); i++ {
			if ents, err := task.Server(i).Board(0).ReadDir("/"); err != nil || len(ents) == 0 {
				t.Errorf("server %d board 0 has no striped backing files (%v)", i, err)
			}
		}

		// Whole-host fault cycle: reads reconstruct through parity while the
		// host is dead, a write goes degraded, rebuild repairs it.
		task.KillServer(1)
		if !task.ServerDown(1) {
			t.Error("ServerDown(1) = false after KillServer")
		}
		if got, _, err := g.Read(0, 256<<10); err != nil || !bytes.Equal(got, data[:256<<10]) {
			t.Errorf("degraded read failed: %v", err)
		}
		if _, err := g.Write(0, data[:sb]); err != nil {
			return err
		}
		task.RestoreServer(1)
		stale, err := task.StaleFragments(1)
		if err != nil {
			return err
		}
		if stale == 0 {
			t.Error("degraded write left no stale fragments")
		}
		if n, err := task.RebuildServer(1); err != nil || n != stale {
			t.Errorf("RebuildServer = %d, %v, want %d stale fragments rebuilt", n, err, stale)
		}
		if got, _, err := g.Read(0, len(data)); err != nil || !bytes.Equal(got, data) {
			t.Errorf("post-rebuild read failed: %v", err)
		}
		// A host outside the fleet is an error from both, not an index panic.
		for _, i := range []int{-1, task.NumServers(), 7} {
			if _, err := task.StaleFragments(i); err == nil {
				t.Errorf("StaleFragments(%d) on a %d-server cluster returned no error", i, task.NumServers())
			}
			if _, err := task.RebuildServer(i); err == nil {
				t.Errorf("RebuildServer(%d) on a %d-server cluster returned no error", i, task.NumServers())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScriptedDiskFailure: a WithFaultPlan whole-disk failure fires at its
// scheduled simulated time and flips the array to degraded mode while a
// streaming workload runs.
func TestScriptedDiskFailure(t *testing.T) {
	const failAt = 300 * time.Millisecond
	srv, err := NewServer(WithDisksPerString(1),
		WithFaultPlan(FaultPlan{}.DiskFailAt(failAt, 0, 3)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.Simulate(func(task *Task) error {
		bd := task.Board(0)
		if bd.DiskFailed(3) {
			t.Fatal("disk failed before its scheduled time")
		}
		for i := 0; i < 12; i++ {
			if err := bd.HardwareRead(int64(i)*(1<<20), 1<<20); err != nil {
				return err
			}
		}
		if task.Elapsed() <= failAt {
			t.Fatalf("workload too short (%v) to cross the fault at %v", task.Elapsed(), failAt)
		}
		if !bd.DiskFailed(3) {
			t.Fatal("scripted disk failure did not escalate")
		}
		st := bd.ArrayStats()
		if st.DiskFailures != 1 || st.DegradedReads == 0 {
			t.Fatalf("stats = %+v, want DiskFailures=1 and DegradedReads>0", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
