package client

import (
	"errors"
	"strings"
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/host"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/trace"
)

// newSystem builds a Fig8-style RAID-II with a formatted LFS and a file of
// the given size.
func newSystem(t *testing.T, fileMB int) (*server.System, string) {
	t.Helper()
	return newSystemCfg(t, fileMB, server.Fig8Config())
}

func newSystemCfg(t *testing.T, fileMB int, cfg server.Config) (*server.System, string) {
	t.Helper()
	sys, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	sys.Eng.Spawn("setup", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			t.Fatal(err)
		}
		f, err := b.CreateFS(p, "/data")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<20)
		for i := 0; i < fileMB; i++ {
			if _, err := f.File.WriteAt(p, buf, int64(i)<<20); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
	})
	sys.Eng.Run()
	return sys, "/data"
}

func TestSPARCstationReadAround3MBps(t *testing.T) {
	// §3.4: "RAID-II read operations for a single SPARCstation client
	// [reach] 3.2 megabytes/second" (client copy-bound).
	sys, path := newSystem(t, 8)
	ws := NewWorkstation(sys, "ss10", host.SPARCstation10())
	var rate float64
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f, err := ws.Open(p, 0, path)
		if err != nil {
			t.Fatal(err)
		}
		dur, err := f.Read(p, 0, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		rate = float64(8<<20) / dur.Seconds() / 1e6
	})
	sys.Eng.Run()
	if rate < 2.6 || rate > 3.8 {
		t.Fatalf("client read = %.2f MB/s, want ~3.2", rate)
	}
}

func TestSPARCstationWriteAround3MBps(t *testing.T) {
	sys, _ := newSystem(t, 1)
	ws := NewWorkstation(sys, "ss10", host.SPARCstation10())
	var rate float64
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f, err := ws.Create(p, 0, "/upload")
		if err != nil {
			t.Fatal(err)
		}
		dur, err := f.Write(p, 0, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		rate = float64(8<<20) / dur.Seconds() / 1e6
	})
	sys.Eng.Run()
	if rate < 2.4 || rate > 3.8 {
		t.Fatalf("client write = %.2f MB/s, want ~3.1", rate)
	}
}

func TestHostNearlyIdleDuringClientTransfer(t *testing.T) {
	// "utilization of the Sun4/280 workstation due to network operations
	// is close to zero with the single SPARCstation client": the
	// high-bandwidth path bypasses the host.
	sys, path := newSystem(t, 8)
	ws := NewWorkstation(sys, "ss10", host.SPARCstation10())
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f, err := ws.Open(p, 0, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Read(p, 0, 8<<20); err != nil {
			t.Fatal(err)
		}
	})
	end := sys.Eng.Run()
	if u := float64(sys.Host.CPUHeld()) / float64(end); u > 0.05 {
		t.Fatalf("host CPU utilization %.3f during client read, want ~0", u)
	}
}

// TestHostCPUHeldMatchesRecorder: the server host's held-CPU sum, which
// ClientNetwork reports as its utilization, and a recorder's busy time for
// the host's ":cpu" resource are two accounts of the same holds.  On the
// §3.4 run (a client writes, the server syncs, the client reads back) they
// must agree to the nanosecond.
func TestHostCPUHeldMatchesRecorder(t *testing.T) {
	sys, err := server.New(server.Fig8Config())
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.Attach(sys.Eng, trace.Config{})
	ws := NewWorkstation(sys, "ss10", host.SPARCstation10())
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		if err := sys.Boards[0].FormatFS(p); err != nil {
			t.Fatal(err)
		}
		f, err := ws.Create(p, 0, "/net")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(p, 0, 4<<20); err != nil {
			t.Fatal(err)
		}
		if err := sys.Boards[0].FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Read(p, 0, 4<<20); err != nil {
			t.Fatal(err)
		}
	})
	end := sys.Eng.Run()
	var busy sim.Duration
	for _, r := range rec.Resources() {
		if r.Name == sys.Host.Cfg.Name+":cpu" {
			busy = r.BusyAt(end)
		}
	}
	if held := sys.Host.CPUHeld(); held == 0 || held != busy {
		t.Errorf("host says the CPU was held %v, the recorder %v", held, busy)
	}
}

func TestFastClientNotCopyBound(t *testing.T) {
	// A hypothetical client with a fast memory system should pull far more
	// than the SPARCstation — "RAID-II is capable of scaling to much
	// higher bandwidth".
	sys, path := newSystem(t, 16)
	fast := host.Config{
		Name: "fast-client", MemBusMBps: 200, BackplaneMBps: 100,
		PerIOOverhead: 100000, CopyCrossings: 1, DMACrossings: 1,
	}
	ws := NewWorkstation(sys, "fast", fast)
	var rate float64
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f, err := ws.Open(p, 0, path)
		if err != nil {
			t.Fatal(err)
		}
		dur, err := f.Read(p, 0, 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		rate = float64(16<<20) / dur.Seconds() / 1e6
	})
	sys.Eng.Run()
	if rate < 10 {
		t.Fatalf("fast client read = %.2f MB/s, want >> 3.2", rate)
	}
}

func TestOpenMissingFileFails(t *testing.T) {
	sys, _ := newSystem(t, 1)
	ws := NewWorkstation(sys, "ss10", host.SPARCstation10())
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		if _, err := ws.Open(p, 0, "/no-such-file"); err == nil {
			t.Error("expected open of missing file to fail")
		}
	})
	sys.Eng.Run()
}

// TestReadRetriesThroughLinkFlap drops the Ultranet ring mid-transfer and
// brings it back: the client library must back off, retry, resume past the
// chunks already delivered, and finish the read successfully.
func TestReadRetriesThroughLinkFlap(t *testing.T) {
	sys, path := newSystem(t, 4)
	ws := NewWorkstation(sys, "ss10", host.SPARCstation10())
	ws.Retry = fault.RetryPolicy{MaxRetries: 20}
	reg := telemetry.Attach(sys.Eng)
	var dur time.Duration
	// A down ring fails a packet as it goes out, and the copy-bound client
	// takes one 256 KB chunk every ~90 ms: the outage is longer than that, so
	// it covers a send wherever the chunk boundaries happen to fall.
	sys.Eng.Spawn("flap", func(p *sim.Proc) {
		p.Wait(200 * time.Millisecond)
		sys.Ultra.Down = true
		p.Wait(100 * time.Millisecond)
		sys.Ultra.Down = false
	})
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f, err := ws.Open(p, 0, path)
		if err != nil {
			t.Fatal(err)
		}
		dur, err = f.Read(p, 0, 4<<20)
		if err != nil {
			t.Fatalf("read through link flap: %v", err)
		}
	})
	sys.Eng.Run()
	if ws.Stats().Retries == 0 {
		t.Fatal("link flap during transfer caused no retries")
	}
	if s := reg.Summary("client-read"); s.Retried != 1 || s.Retries != ws.Stats().Retries {
		t.Fatalf("client-read telemetry: %d retried requests, %d retries; want 1 and the client's %d",
			s.Retried, s.Retries, ws.Stats().Retries)
	}
	// The outage plus backoff must show up in the request duration: a clean
	// 4 MB read at ~3.2 MB/s takes ~1.25 s; the flap adds at least 50 ms.
	if dur < 1300*time.Millisecond {
		t.Fatalf("read through 100ms outage took only %v", dur)
	}
}

// TestReadFailsWithoutRetries confirms the typed error surfaces when the
// policy allows no retries and the link is down.
func TestReadFailsWithoutRetries(t *testing.T) {
	sys, path := newSystem(t, 1)
	ws := NewWorkstation(sys, "ss10", host.SPARCstation10())
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		sys.Ultra.Down = true
		f, err := ws.Open(p, 0, path)
		if err == nil {
			_, err = f.Read(p, 0, 1<<20)
		}
		if !errors.Is(err, fault.ErrLinkDown) {
			t.Fatalf("err = %v, want fault.ErrLinkDown", err)
		}
	})
	sys.Eng.Run()
}

// TestDeadlineBoundsRetries keeps the link down for good: a request with a
// deadline must give up with fault.ErrDeadline instead of burning through
// its whole retry budget.
func TestDeadlineBoundsRetries(t *testing.T) {
	sys, path := newSystem(t, 1)
	ws := NewWorkstation(sys, "ss10", host.SPARCstation10())
	ws.Retry = fault.RetryPolicy{MaxRetries: 1000, Deadline: 100 * time.Millisecond}
	var dur time.Duration
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f, err := ws.Open(p, 0, path)
		if err != nil {
			t.Fatal(err)
		}
		sys.Ultra.Down = true
		start := p.Now()
		_, err = f.Read(p, 0, 1<<20)
		dur = time.Duration(p.Now().Sub(start))
		if !errors.Is(err, fault.ErrDeadline) {
			t.Fatalf("err = %v, want fault.ErrDeadline", err)
		}
		// The deadline error keeps the typed cause of the last attempt.
		if !errors.Is(err, fault.ErrLinkDown) {
			t.Fatalf("err = %v, want the last attempt's fault.ErrLinkDown too", err)
		}
	})
	sys.Eng.Run()
	if dur > 150*time.Millisecond {
		t.Fatalf("deadline 100ms but request ran %v", dur)
	}
	if ws.Stats().Deadlines != 1 {
		t.Fatalf("Deadlines = %d, want 1", ws.Stats().Deadlines)
	}
}

// TestClientReadStageBreakdown: three clients with telemetry attached, the
// ring down when they first send.  Every layer a raid_read crosses opens its
// spans with p.Span alone, and the request's stage breakdown must name them
// all — including the client's backoff after a failed open.
func TestClientReadStageBreakdown(t *testing.T) {
	sys, path := newSystem(t, 2)
	reg := telemetry.Attach(sys.Eng)
	// The ring goes down before the clients first send and comes back
	// 30 ms later, as in TestReadRetriesThroughLinkFlap.
	sys.Eng.Spawn("flap", func(p *sim.Proc) {
		sys.Ultra.Down = true
		p.Wait(30 * time.Millisecond)
		sys.Ultra.Down = false
	})
	for _, name := range []string{"ws-a", "ws-b", "ws-c"} {
		ws := NewWorkstation(sys, name, host.SPARCstation10())
		ws.Retry = fault.RetryPolicy{MaxRetries: 30}
		sys.Eng.Spawn("t-"+name, func(p *sim.Proc) {
			f, err := ws.Open(p, 0, path)
			if err != nil {
				t.Fatalf("%s open: %v", ws.EP.Name, err)
			}
			if _, err := f.Read(p, 0, 1<<20); err != nil {
				t.Fatalf("%s read: %v", ws.EP.Name, err)
			}
		})
	}
	sys.Eng.Run()
	stages := func(kind string) map[string]bool {
		got := map[string]bool{}
		for _, st := range reg.Summary(kind).Stages {
			got[st.Stage] = st.Total > 0
		}
		return got
	}
	if open := reg.Summary("client-open"); open.N != 3 || open.Retried != 3 || !stages("client-open")["client"] {
		t.Errorf("client-open summary %+v: want 3 requests, each retried, with client backoff time", open)
	}
	read := stages("client-read")
	for _, stage := range []string{"net", "raid", "scsi", "disk"} {
		if !read[stage] {
			t.Errorf("client-read has no %s stage time (stages: %+v)", stage, reg.Summary("client-read").Stages)
		}
	}
}

// TestReadFromDegradedAndRebuildingArray covers the client path while the
// array is reconstructing: a disk fails, a read must still deliver the full
// size at a sane rate, and the same holds while a hot rebuild is running.
func TestReadFromDegradedAndRebuildingArray(t *testing.T) {
	// Short-stroke the drives: the assertions are about the client path
	// staying copy-bound, and a full 320 MB reconstruction would dominate
	// the run for nothing.
	cfg := server.Fig8Config()
	cfg.DiskSpec.Cylinders = 80
	sys, path := newSystemCfg(t, 4, cfg)
	b := sys.Boards[0]
	ws := NewWorkstation(sys, "ss10", host.SPARCstation10())
	var degraded, rebuilding time.Duration
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f, err := ws.Open(p, 0, path)
		if err != nil {
			t.Fatal(err)
		}
		b.Disks[2].Drive.Fail()
		degraded, err = f.Read(p, 0, 4<<20)
		if err != nil {
			t.Fatalf("degraded read: %v", err)
		}
		rb, err := b.ReplaceDisk(2)
		if err != nil {
			t.Fatal(err)
		}
		rebuilding, err = f.Read(p, 0, 4<<20)
		if err != nil {
			t.Fatalf("read during rebuild: %v", err)
		}
		if _, err := rb.Wait(p); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
	})
	sys.Eng.Run()
	for what, dur := range map[string]time.Duration{"degraded": degraded, "rebuilding": rebuilding} {
		rate := float64(4<<20) / dur.Seconds() / 1e6
		// Reconstruction costs disk time, not client copies, so the
		// copy-bound SPARCstation still lands near its healthy rate.
		if rate < 1.5 || rate > 3.8 {
			t.Errorf("%s read = %.2f MB/s, want 1.5..3.8", what, rate)
		}
	}
	if st := b.Array.Stats(); st.DiskFailures != 1 {
		t.Fatalf("DiskFailures = %d, want 1", st.DiskFailures)
	}
}

// failingFile satisfies the server FS-file interface with a permanent
// medium error, exercising the per-piece errors of the read stream.
type failingFile struct{ err error }

func (f failingFile) ReadAtPieces(p *sim.Proc, off int64, dst []byte, piece int, ready func(q *sim.Proc, off, n int) error) (int, error) {
	return 0, f.err
}
func (f failingFile) WriteAt(p *sim.Proc, data []byte, off int64) (int, error) {
	return 0, f.err
}
func (f failingFile) Size(p *sim.Proc) (int64, error) { return 0, f.err }
func (f failingFile) Generation() uint64              { return 0 }

// TestChunkReadErrorPropagates plants a failing file behind the client
// library: the error must surface from Read (not be swallowed by the
// spawned chunk readers), and the XBUS buffer pool must be whole afterwards
// so the next request does not deadlock.
func TestChunkReadErrorPropagates(t *testing.T) {
	sys, path := newSystem(t, 2)
	b := sys.Boards[0]
	ws := NewWorkstation(sys, "ss10", host.SPARCstation10())
	stubErr := errors.New("medium error on chunk")
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		broken := &File{
			ws:    ws,
			board: b,
			f:     &server.FSFile{Board: b, File: failingFile{err: stubErr}},
			path:  "/broken",
		}
		_, err := broken.Read(p, 0, 2<<20)
		if !errors.Is(err, stubErr) {
			t.Fatalf("err = %v, want wrapped %v", err, stubErr)
		}
		if err != nil && !strings.Contains(err.Error(), "/broken") {
			t.Fatalf("error %q does not name the file", err)
		}
		// The failed request must have drained its buffers: a healthy read
		// right after must succeed, not deadlock on the token pool.
		f, err := ws.Open(p, 0, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Read(p, 0, 2<<20); err != nil {
			t.Fatalf("read after failed request: %v", err)
		}
	})
	sys.Eng.Run()
}

// TestReadLargerThanFreeDRAM: an 8 MB raid_read from a board whose cache
// leaves 6 MB of DRAM free completes, and gives every byte back.  The read
// used to reserve every chunk before its first send, and only its sends
// give bytes back, so it parked for good once the DRAM ran out.
func TestReadLargerThanFreeDRAM(t *testing.T) {
	cfg := server.Fig8Config()
	cfg.CacheBytes = 26 << 20
	const size = 8 << 20
	sys, path := newSystemCfg(t, size>>20, cfg)
	b := sys.Boards[0]
	free := b.XB.Buffers.Available()
	if free >= size {
		t.Fatalf("%d bytes free: the read fits", free)
	}
	ws := NewWorkstation(sys, "ss10", host.SPARCstation10())
	done := false
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f, err := ws.Open(p, 0, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Read(p, 0, size); err != nil {
			t.Error(err)
		}
		done = true
	})
	sys.Eng.Run()
	if !done {
		t.Fatalf("an 8 MB read with %d bytes free never finished (%d processes parked)", free, sys.Eng.Live())
	}
	if got := b.XB.Buffers.Available(); got != free {
		t.Fatalf("%d bytes free after the read, %d before", got, free)
	}
}
