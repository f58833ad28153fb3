package lfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"raidii/internal/raid"
	"raidii/internal/sim"
)

// newDevice builds the functional array used by recovery tests.
func newDevice(e *sim.Engine, devMB int) *raid.Array {
	devs := make([]raid.Dev, 5)
	for i := range devs {
		devs[i] = raid.NewMemDev(int64(devMB)<<20/512, 512)
	}
	arr, err := raid.New(e, devs, raid.Config{Level: raid.Level5, StripeUnitSectors: 16}, nil)
	if err != nil {
		panic(err)
	}
	return arr
}

func TestMountAfterCleanCheckpoint(t *testing.T) {
	e := sim.New()
	dev := newDevice(e, 8)
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		f, _ := fs.Create(p, "/persisted")
		_, _ = f.WriteAt(p, []byte("survives remount"), 0)
		_ = fs.Checkpoint(p)
		fs.Crash()

		fs2, err := Mount(p, e, dev)
		if err != nil {
			t.Fatal(err)
		}
		g, err := fs2.Open(p, "/persisted")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := g.ReadAt(p, 0, 64)
		if string(got) != "survives remount" {
			t.Fatalf("got %q", got)
		}
	})
}

func TestRollForwardRecoversPostCheckpointWrites(t *testing.T) {
	e := sim.New()
	dev := newDevice(e, 8)
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		f, _ := fs.Create(p, "/before")
		_, _ = f.WriteAt(p, []byte("checkpointed"), 0)
		_ = fs.Checkpoint(p)

		// Post-checkpoint activity, synced to the log but NOT checkpointed.
		g, _ := fs.Create(p, "/after")
		_, _ = g.WriteAt(p, bytes.Repeat([]byte("x"), 100<<10), 0)
		_ = fs.Sync(p)
		fs.Crash()

		fs2, err := Mount(p, e, dev)
		if err != nil {
			t.Fatal(err)
		}
		if fs2.Stats().RollForwardSegs == 0 {
			t.Fatal("expected roll-forward segments")
		}
		h, err := fs2.Open(p, "/after")
		if err != nil {
			t.Fatalf("post-checkpoint file lost: %v", err)
		}
		got, _ := h.ReadAt(p, 0, 100<<10)
		if len(got) != 100<<10 {
			t.Fatalf("short read %d", len(got))
		}
		for _, b := range got {
			if b != 'x' {
				t.Fatal("content corrupted by roll-forward")
			}
		}
		// And the pre-checkpoint file survived too.
		if _, err := fs2.Open(p, "/before"); err != nil {
			t.Fatal(err)
		}
		r, err := fs2.Check(p)
		if err != nil || !r.OK() {
			t.Fatalf("check after recovery: %v %+v", err, r)
		}
	})
}

func TestUnsyncedDataLostButFSConsistent(t *testing.T) {
	e := sim.New()
	dev := newDevice(e, 8)
	run(e, func(p *sim.Proc) {
		fs, _ := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		f, _ := fs.Create(p, "/stable")
		_, _ = f.WriteAt(p, []byte("stable"), 0)
		_ = fs.Checkpoint(p)

		// Buffered-only writes: in the staging segment, never sealed.
		g, _ := fs.Create(p, "/volatile")
		_, _ = g.WriteAt(p, []byte("gone"), 0)
		fs.Crash()

		fs2, err := Mount(p, e, dev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs2.Open(p, "/volatile"); err != ErrNotExist {
			t.Fatalf("unsynced file should be lost, got %v", err)
		}
		if _, err := fs2.Open(p, "/stable"); err != nil {
			t.Fatal("stable file lost")
		}
		r, err := fs2.Check(p)
		if err != nil || !r.OK() {
			t.Fatalf("inconsistent after crash: %v %+v", err, r)
		}
	})
}

func TestRepeatedCrashRecoverCycles(t *testing.T) {
	e := sim.New()
	dev := newDevice(e, 16)
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 5; cycle++ {
			name := fmt.Sprintf("/cycle%d", cycle)
			f, err := fs.Create(p, name)
			if err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			payload := bytes.Repeat([]byte{byte('A' + cycle)}, 20<<10)
			_, _ = f.WriteAt(p, payload, 0)
			if cycle%2 == 0 {
				_ = fs.Checkpoint(p)
			} else {
				_ = fs.Sync(p)
			}
			fs.Crash()
			fs, err = Mount(p, e, dev)
			if err != nil {
				t.Fatalf("cycle %d remount: %v", cycle, err)
			}
			// All files from this and earlier cycles must exist.
			for c := 0; c <= cycle; c++ {
				g, err := fs.Open(p, fmt.Sprintf("/cycle%d", c))
				if err != nil {
					t.Fatalf("cycle %d: file %d missing: %v", cycle, c, err)
				}
				got, _ := g.ReadAt(p, 0, 20<<10)
				want := bytes.Repeat([]byte{byte('A' + c)}, 20<<10)
				if !bytes.Equal(got, want) {
					t.Fatalf("cycle %d: file %d corrupt", cycle, c)
				}
			}
		}
		r, err := fs.Check(p)
		if err != nil || !r.OK() {
			t.Fatalf("final check: %v %+v", err, r)
		}
	})
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	e := sim.New()
	dev := newDevice(e, 8)
	run(e, func(p *sim.Proc) {
		fs, _ := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		f, _ := fs.Create(p, "/data")
		_, _ = f.WriteAt(p, []byte("v1"), 0)
		_ = fs.Checkpoint(p) // cp region A (or B)
		_, _ = f.WriteAt(p, []byte("v2"), 0)
		_ = fs.Checkpoint(p) // the other region
		latest := fs.cpNext ^ 1
		fs.Crash()

		// Smash the most recent checkpoint region.
		junk := make([]byte, BlockSize)
		for i := range junk {
			junk[i] = 0xde
		}
		if err := dev.Write(p, fs.sb.CPAddr[latest]*8, junk); err != nil {
			t.Error(err)
		}

		fs2, err := Mount(p, e, dev)
		if err != nil {
			t.Fatal(err)
		}
		// Content may be v1 (older checkpoint) possibly rolled forward to
		// v2; either way the file system must be consistent and the file
		// present.
		if _, err := fs2.Open(p, "/data"); err != nil {
			t.Fatal(err)
		}
		r, err := fs2.Check(p)
		if err != nil || !r.OK() {
			t.Fatalf("check: %v %+v", err, r)
		}
	})
}

func TestMountGarbageDeviceFails(t *testing.T) {
	e := sim.New()
	dev := newDevice(e, 8)
	run(e, func(p *sim.Proc) {
		if _, err := Mount(p, e, dev); err == nil {
			t.Fatal("mounting an unformatted device should fail")
		}
	})
}

// dropDev is a MemDev whose writes each take write, and which forgets the
// writes that end while drop is set: a crash's seals in flight then never
// reach it.
type dropDev struct {
	*raid.MemDev
	write time.Duration
	drop  bool
}

func (d *dropDev) Write(p *sim.Proc, lba int64, data []byte) error {
	p.Wait(d.write)
	if d.drop {
		return nil
	}
	return d.MemDev.Write(p, lba, data)
}

// TestMountWritesTheTailTheDeviceLacks: a crash strikes with sealed segments
// still being written and a committed open one, and the device never
// finishes those writes.  Mounting with the crash's tail writes the sealed
// segments from it and reopens the open one: the file reads back whole,
// checks clean, and a second crash and mount read the same bytes.
func TestMountWritesTheTailTheDeviceLacks(t *testing.T) {
	e := sim.New()
	dev := &dropDev{MemDev: raid.NewMemDev(8<<20/512, 512), write: 10 * time.Millisecond}
	cfg := Config{SegBytes: 64 << 10, MaxInodes: 256, CleanReserve: 3, Images: 4}
	want := pinPattern(40*BlockSize, 0x5a) // two full segments and part of a third
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(p, "/tail")
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, want, 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Commit(p); err != nil {
			t.Fatal(err)
		}
		tail := fs.Crash()
		if tail.Len() < 3 {
			t.Fatalf("the crash left %d images, want two sealed ones in flight and the open one", tail.Len())
		}
		dev.drop = true
		p.Wait(2 * dev.write) // the seals in flight end, forgotten
		dev.drop = false
		for round, restored := 0, tail.Len(); round < 2; round, restored = round+1, 0 {
			if fs, err = MountTail(p, e, dev, cfg, tail); err != nil {
				t.Fatalf("mount %d: %v", round+1, err)
			}
			if got := fs.Stats().RollForwardSegs; got != uint64(restored) {
				t.Fatalf("mount %d rolled %d segments forward, want %d", round+1, got, restored)
			}
			if rep, err := fs.Check(p); err != nil || !rep.OK() {
				t.Fatalf("mount %d: check %v %+v", round+1, err, rep)
			}
			g, err := fs.Open(p, "/tail")
			if err != nil {
				t.Fatal(err)
			}
			if got, err := g.ReadAt(p, 0, len(want)+1); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("mount %d: read %d bytes (%v), not the %d committed", round+1, len(got), err, len(want))
			}
			tail = fs.Crash()
		}
	})
}
