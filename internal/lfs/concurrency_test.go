package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"raidii/internal/sim"
)

// TestConcurrentWritersDistinctFiles drives several simulated processes
// writing different files at once; the global metadata lock must keep
// structures coherent.
func TestConcurrentWritersDistinctFiles(t *testing.T) {
	e, fs := newFS(t, 64, 16)
	const writers = 6
	const perFile = 300 << 10
	g := sim.NewGroup(e)
	for w := 0; w < writers; w++ {
		g.Go("writer", func(p *sim.Proc) error {
			f, err := fs.Create(p, fmt.Sprintf("/w%d", w))
			if err != nil {
				return err
			}
			payload := bytes.Repeat([]byte{byte('a' + w)}, perFile)
			_, err = f.WriteAt(p, payload, 0)
			return err
		})
	}
	e.Run()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	run(e, func(p *sim.Proc) {
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < writers; w++ {
			f, err := fs.Open(p, fmt.Sprintf("/w%d", w))
			if err != nil {
				t.Fatalf("writer %d file missing: %v", w, err)
			}
			got, err := f.ReadAt(p, 0, perFile)
			if err != nil {
				t.Fatal(err)
			}
			want := bytes.Repeat([]byte{byte('a' + w)}, perFile)
			if !bytes.Equal(got, want) {
				t.Fatalf("writer %d content corrupted", w)
			}
		}
		rep, err := fs.Check(p)
		if err != nil || !rep.OK() {
			t.Fatalf("check: %v %+v", err, rep)
		}
	})
}

// TestConcurrentReadersShareFile checks that parallel readers of one file
// all see the same bytes while a writer appends.
func TestConcurrentReadersShareFile(t *testing.T) {
	e, fs := newFS(t, 64, 16)
	const size = 1 << 20
	base := bytes.Repeat([]byte{0x5a}, size)
	run(e, func(p *sim.Proc) {
		f, _ := fs.Create(p, "/shared")
		_, _ = f.WriteAt(p, base, 0)
		_ = fs.Sync(p)
	})
	g := sim.NewGroup(e)
	for r := 0; r < 4; r++ {
		g.Go("reader", func(p *sim.Proc) error {
			f, err := fs.Open(p, "/shared")
			if err != nil {
				return err
			}
			got, err := f.ReadAt(p, 0, size)
			if err == nil && !bytes.Equal(got, base) {
				err = errors.New("reader saw wrong data")
			}
			return err
		})
	}
	g.Go("appender", func(p *sim.Proc) error {
		f, err := fs.Open(p, "/shared")
		if err != nil {
			return err
		}
		_, err = f.WriteAt(p, []byte("tail"), size)
		return err
	})
	e.Run()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFileSyncDurability checks fsync semantics: a per-file Sync survives
// a crash even though the global state was never checkpointed or synced.
func TestFileSyncDurability(t *testing.T) {
	e := sim.New()
	dev := newDevice(e, 8)
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		f, _ := fs.Create(p, "/fsynced")
		_, _ = f.WriteAt(p, []byte("must survive"), 0)
		_ = fs.Checkpoint(p) // persist the directory entry
		_, _ = f.WriteAt(p, []byte("MUST SURVIVE"), 0)
		if err := f.Sync(p); err != nil {
			t.Fatal(err)
		}
		fs.Crash()
		fs2, err := Mount(p, e, dev)
		if err != nil {
			t.Fatal(err)
		}
		g, err := fs2.Open(p, "/fsynced")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := g.ReadAt(p, 0, 12)
		if string(got) != "MUST SURVIVE" {
			t.Fatalf("got %q after crash, want fsynced content", got)
		}
	})
}

// brokenDev fails every write once broken is set.
type brokenDev struct {
	Device
	broken bool
}

func (d *brokenDev) Write(p *sim.Proc, lba int64, data []byte) error {
	if d.broken {
		return errors.New("device gone")
	}
	return d.Device.Write(p, lba, data)
}

// TestFileSyncReportsLostSegment: fsync waits for the segment it sealed, so
// it must report that segment's failed write instead of acknowledging bytes
// that never reached the device.
func TestFileSyncReportsLostSegment(t *testing.T) {
	e := sim.New()
	dev := &brokenDev{Device: newDevice(e, 8)}
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(p, "/doomed")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, []byte("never lands"), 0); err != nil {
			t.Fatal(err)
		}
		dev.broken = true
		if err := f.Sync(p); err == nil {
			t.Fatal("File.Sync acknowledged a segment whose device write failed")
		}
		if err := fs.Sync(p); err == nil {
			t.Fatal("the lost segment must stay latched for later syncs")
		}
	})
}

// TestOutOfSpaceSurfacesError fills a tiny volume with live data until
// writes must fail with ErrNoSpace, then verifies existing data is intact.
func TestOutOfSpaceSurfacesError(t *testing.T) {
	// 4 data disks x 1 MB = 4 MB usable, minus metadata.
	e, fs := newFS(t, 64, 1)
	run(e, func(p *sim.Proc) {
		var firstErr error
		var written int
		for i := 0; firstErr == nil && i < 100; i++ {
			f, err := fs.Create(p, fmt.Sprintf("/fill%02d", i))
			if err != nil {
				firstErr = err
				break
			}
			if _, err := f.WriteAt(p, bytes.Repeat([]byte{byte(i)}, 128<<10), 0); err != nil {
				firstErr = err
				break
			}
			if err := fs.Sync(p); err != nil {
				firstErr = err
				break
			}
			written = i
		}
		if firstErr == nil {
			t.Fatal("tiny volume never filled")
		}
		// Everything written before the failure must still read back.
		for i := 0; i < written; i++ {
			f, err := fs.Open(p, fmt.Sprintf("/fill%02d", i))
			if err != nil {
				t.Fatalf("file %d lost after ENOSPC: %v", i, err)
			}
			got, err := f.ReadAt(p, 0, 128<<10)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range got {
				if b != byte(i) {
					t.Fatalf("file %d corrupted after ENOSPC", i)
				}
			}
		}
	})
}
