package server

import (
	"bytes"
	"testing"

	"raidii/internal/sim"
)

// TestFileServiceSurvivesDiskFailure exercises the full stack in degraded
// mode: LFS keeps serving correct data after a member disk fails, and
// after reconstruction onto a spare the array is healthy again.
func TestFileServiceSurvivesDiskFailure(t *testing.T) {
	// Small disks keep the full-disk reconstruction fast.
	cfg := Fig8Config()
	cfg.DiskSpec.Cylinders = 120
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			t.Fatal(err)
		}
		f, err := b.CreateFS(p, "/survivor")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.File.WriteAt(p, payload, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.FS.Sync(p); err != nil {
			t.Fatal(err)
		}

		// Lose a disk.  Reads must still return correct data via parity
		// reconstruction, and writes must keep parity coherent.
		if err := b.Array.FailDisk(5); err != nil {
			t.Fatal(err)
		}
		lf, _ := b.FS.Open(p, "/survivor")
		got, err := lf.ReadAt(p, 0, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("degraded read returned wrong data")
		}
		patch := []byte("written while degraded")
		if _, err := lf.WriteAt(p, patch, 1<<20); err != nil {
			t.Fatal(err)
		}
		if err := b.FS.Sync(p); err != nil {
			t.Fatal(err)
		}

		// Reconstruct onto a spare and verify everything again.
		spare, err := b.AttachSpare(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Array.Reconstruct(p, 5, spare); err != nil {
			t.Fatal(err)
		}
		if b.Array.Failed(5) {
			t.Fatal("disk still marked failed after reconstruction")
		}
		want := append([]byte{}, payload...)
		copy(want[1<<20:], patch)
		got, err = lf.ReadAt(p, 0, len(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("post-rebuild contents wrong")
		}
		if bad := b.Array.CheckParity(p); bad != 0 {
			t.Fatalf("%d inconsistent stripes after rebuild", bad)
		}
		if st := b.Array.Stats(); st.DegradedReads == 0 {
			t.Fatal("no degraded reads recorded")
		}
	})
	sys.Eng.Run()
}

// TestDegradedModeSlowerButWorking quantifies degraded-read cost: a read
// touching the lost column fans out to every surviving disk.
func TestDegradedModeSlowerButWorking(t *testing.T) {
	rate := func(fail bool) float64 {
		sys, err := New(Fig8Config())
		if err != nil {
			t.Fatal(err)
		}
		b := sys.Boards[0]
		if fail {
			if err := b.Array.FailDisk(2); err != nil {
				t.Fatal(err)
			}
		}
		var dur sim.Duration
		sys.Eng.Spawn("t", func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < 8; i++ {
				_, _ = b.Array.Read(p, int64(i)*2048, 2048) // 1 MB each
			}
			dur = p.Now().Sub(start)
		})
		sys.Eng.Run()
		return float64(8<<20) / dur.Seconds() / 1e6
	}
	healthy, degraded := rate(false), rate(true)
	if degraded >= healthy {
		t.Fatalf("degraded (%.1f) should be slower than healthy (%.1f)", degraded, healthy)
	}
	if degraded < healthy/4 {
		t.Fatalf("degraded (%.1f) unreasonably slow vs healthy (%.1f)", degraded, healthy)
	}
}

// TestMultipleClientsShareTheServer drives several concurrent FS streams
// through one board and checks aggregate accounting.
func TestMultipleClientsShareTheServer(t *testing.T) {
	sys, err := New(Fig8Config())
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	const streams = 4
	const perStream = 4 << 20
	sys.Eng.Spawn("setup", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			t.Fatal(err)
		}
	})
	sys.Eng.Run()

	g := sim.NewGroup(sys.Eng)
	for i := 0; i < streams; i++ {
		g.Go("client", func(p *sim.Proc) error {
			f, err := b.CreateFS(p, pathOf(i))
			if err != nil {
				return err
			}
			buf := make([]byte, 1<<20)
			for off := int64(0); off < perStream; off += int64(len(buf)) {
				if err := b.FSWrite(p, f, off, buf); err != nil {
					return err
				}
			}
			return nil
		})
	}
	sys.Eng.Run()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	sys.Eng.Spawn("verify", func(p *sim.Proc) {
		if err := b.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < streams; i++ {
			f, err := b.OpenFS(p, pathOf(i))
			if err != nil {
				t.Fatal(err)
			}
			sz, _ := f.File.Size(p)
			if sz != perStream {
				t.Fatalf("stream %d size = %d", i, sz)
			}
		}
		rep, err := b.FS.Check(p)
		if err != nil || !rep.OK() {
			t.Fatalf("check: %v %+v", err, rep)
		}
	})
	sys.Eng.Run()
}

func pathOf(i int) string {
	return string([]byte{'/', 's', byte('0' + i)})
}
