package server

import (
	"math/rand"
	"testing"

	"raidii/internal/sim"
	"raidii/internal/workload"
)

func TestAssemblyDefault(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	if got := b.NumDisks(); got != 24 {
		t.Fatalf("disks = %d, want 24", got)
	}
	if b.Array.Width() != 24 {
		t.Fatalf("array width = %d", b.Array.Width())
	}
	// 46 GB total across the full three-rack machine is the paper's 144
	// disks; one board sees 24 x 320 MB ~ 7.3 GB usable (23/24 data).
	if cap := b.Array.Sectors() * 512; cap < 7_000_000_000 || cap > 8_000_000_000 {
		t.Fatalf("board capacity = %d", cap)
	}
}

func TestFifthCougarAddsDisks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FifthCougar = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Boards[0].NumDisks(); got != 30 {
		t.Fatalf("disks = %d, want 30", got)
	}
}

// TestRefusedReplaceAttachesNoSpare: a replace the array refuses — a healthy
// device, one out of range, one already being rebuilt — puts no drive on the
// board; an accepted one adds exactly one.
func TestRefusedReplaceAttachesNoSpare(t *testing.T) {
	sys, err := New(Fig8Config())
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	n := b.NumDisks()
	refuse := func(dev, want int) {
		t.Helper()
		if _, err := b.ReplaceDisk(dev); err == nil {
			t.Fatalf("ReplaceDisk(%d) was accepted", dev)
		}
		if got := b.NumDisks(); got != want {
			t.Fatalf("NumDisks = %d after a refused ReplaceDisk(%d), want %d", got, dev, want)
		}
	}
	refuse(2, n)
	refuse(n, n)
	if err := b.Array.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReplaceDisk(2); err != nil {
		t.Fatal(err)
	}
	refuse(2, n+1)
}

// hwRandomRate measures Figure 5 at one request size.
func hwRandomRate(t *testing.T, size int, write bool) float64 {
	t.Helper()
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	space := b.Array.Sectors()
	res, err := workload.FixedOps(sys.Eng, 4, 24<<20/size, func(p *sim.Proc, _ int, rng *rand.Rand) (int, error) {
		align := int64(size / 512)
		off := workload.RandomAligned(rng, space-align, align)
		if write {
			return size, b.HardwareWrite(p, off, size)
		}
		return size, b.HardwareRead(p, off, size)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.MBps()
}

func TestFig5LargeRandomReadsNear20MBps(t *testing.T) {
	r := hwRandomRate(t, 1<<20, false)
	if r < 16 || r > 25 {
		t.Fatalf("1 MB random reads = %.1f MB/s, want ~20", r)
	}
}

func TestFig5LargeRandomWritesNear20MBps(t *testing.T) {
	w := hwRandomRate(t, 1<<20, true)
	if w < 14 || w > 24 {
		t.Fatalf("1 MB random writes = %.1f MB/s, want ~18-20", w)
	}
}

func TestFig5SmallRequestsMuchSlower(t *testing.T) {
	small := hwRandomRate(t, 64<<10, false)
	large := hwRandomRate(t, 1<<20, false)
	if small >= large/1.8 {
		t.Fatalf("64 KB (%.1f) should be well below 1 MB (%.1f)", small, large)
	}
}

func TestTable1SequentialRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FifthCougar = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	const req = 1600 << 10 // the paper's 1.6 MB sequential requests
	var cursor int64
	res, err := workload.FixedOps(sys.Eng, 4, 48, func(p *sim.Proc, _ int, _ *rand.Rand) (int, error) {
		off := cursor
		cursor += int64(req / 512)
		return req, b.HardwareRead(p, off, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.MBps()
	if r < 26 || r > 34 {
		t.Fatalf("sequential read = %.1f MB/s, want ~31", r)
	}
}

func TestTable1SequentialWrite(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FifthCougar = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	const req = 1600 << 10
	var cursor int64
	res, err := workload.FixedOps(sys.Eng, 4, 48, func(p *sim.Proc, _ int, _ *rand.Rand) (int, error) {
		off := cursor
		cursor += int64(req / 512)
		return req, b.HardwareWrite(p, off, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	w := res.MBps()
	if w < 19 || w > 27 {
		t.Fatalf("sequential write = %.1f MB/s, want ~23", w)
	}
}

func TestRAIDIBaselineCeiling(t *testing.T) {
	r, err := NewRAIDI(DefaultRAIDIConfig())
	if err != nil {
		t.Fatal(err)
	}
	var cursor int64
	res, err := workload.FixedOps(r.Eng, 1, 8, func(p *sim.Proc, _ int, _ *rand.Rand) (int, error) {
		const req = 1 << 20
		err := r.UserRead(p, cursor, req)
		cursor += int64(req / 512)
		return req, err
	})
	if err != nil {
		t.Fatal(err)
	}
	rate := res.MBps()
	if rate < 1.9 || rate > 2.7 {
		t.Fatalf("RAID-I user-level read = %.2f MB/s, want ~2.3", rate)
	}
}

func TestTable2SmallIORates(t *testing.T) {
	// RAID-II, 15 disks, one process per disk issuing 4 KB random reads.
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	horizon := sim.Time(3e9) // 3 simulated seconds
	space := b.Disks[0].Sectors() - 8
	res2, err := workload.ClosedLoop(sys.Eng, 15, horizon, func(p *sim.Proc, w int, rng *rand.Rand) (int, error) {
		lba := workload.RandomAligned(rng, space, 8)
		return 4096, b.SmallDiskRead(p, w, lba, 4096)
	})
	if err != nil {
		t.Fatal(err)
	}
	iops2 := res2.IOPS()
	if iops2 < 380 || iops2 < 400*0.9 || iops2 > 470 {
		t.Fatalf("RAID-II 15-disk IOPS = %.0f, want ~420 (>400)", iops2)
	}

	// RAID-I, 15 disks.
	r, err := NewRAIDI(DefaultRAIDIConfig())
	if err != nil {
		t.Fatal(err)
	}
	space1 := r.Disks[0].Sectors() - 8
	res1, err := workload.ClosedLoop(r.Eng, 15, horizon, func(p *sim.Proc, w int, rng *rand.Rand) (int, error) {
		lba := workload.RandomAligned(rng, space1, 8)
		return 4096, r.SmallDiskRead(p, w, lba, 4096)
	})
	if err != nil {
		t.Fatal(err)
	}
	iops1 := res1.IOPS()
	if iops1 < 240 || iops1 > 310 {
		t.Fatalf("RAID-I 15-disk IOPS = %.0f, want ~275", iops1)
	}
	if iops2 <= iops1 {
		t.Fatalf("RAID-II (%.0f) should beat RAID-I (%.0f)", iops2, iops1)
	}
}

func TestTable2SingleDisk(t *testing.T) {
	sys, _ := New(DefaultConfig())
	b := sys.Boards[0]
	horizon := sim.Time(3e9)
	space := b.Disks[0].Sectors() - 8
	res, err := workload.ClosedLoop(sys.Eng, 1, horizon, func(p *sim.Proc, w int, rng *rand.Rand) (int, error) {
		lba := workload.RandomAligned(rng, space, 8)
		return 4096, b.SmallDiskRead(p, 0, lba, 4096)
	})
	if err != nil {
		t.Fatal(err)
	}
	if iops := res.IOPS(); iops < 30 || iops > 42 {
		t.Fatalf("RAID-II single-disk IOPS = %.0f, want ~36", iops)
	}

	r, _ := NewRAIDI(DefaultRAIDIConfig())
	space1 := r.Disks[0].Sectors() - 8
	res1, err := workload.ClosedLoop(r.Eng, 1, horizon, func(p *sim.Proc, w int, rng *rand.Rand) (int, error) {
		lba := workload.RandomAligned(rng, space1, 8)
		return 4096, r.SmallDiskRead(p, 0, lba, 4096)
	})
	if err != nil {
		t.Fatal(err)
	}
	if iops := res1.IOPS(); iops < 23 || iops > 32 {
		t.Fatalf("RAID-I single-disk IOPS = %.0f, want ~27", iops)
	}
}

func TestEtherPathSlow(t *testing.T) {
	sys, err := New(Fig8Config())
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	var rate float64
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			t.Fatal(err)
		}
		f, err := b.CreateFS(p, "/small")
		if err != nil {
			t.Fatal(err)
		}
		if err := b.FSWrite(p, f, 0, make([]byte, 1<<20)); err != nil {
			t.Fatal(err)
		}
		_ = b.FS.Sync(p)
		start := p.Now()
		if err := b.EtherRead(p, f, 0, 1<<20); err != nil {
			t.Fatal(err)
		}
		rate = float64(1<<20) / p.Now().Sub(start).Seconds() / 1e6
	})
	sys.Eng.Run()
	// Ethernet standard mode: about 1 MB/s, the wire rate.
	if rate > 1.3 {
		t.Fatalf("ether path = %.2f MB/s, should be wire-limited (~1)", rate)
	}
}

// TestSmallDiskReadTakesItsDisksPort: a Table 2 read from a disk on the
// fifth Cougar crosses the host control port, as the array's commands to
// that disk do, and leaves VME disk port 0 idle.
func TestSmallDiskReadTakesItsDisksPort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FifthCougar = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		if err := b.SmallDiskRead(p, len(b.Disks)-1, 0, 4096); err != nil {
			t.Error(err)
		}
	})
	sys.Eng.Run()
	// A port's hop is its own link, then XBUS memory, which every port shares.
	vme, host := b.XB.VME[0].In().Links()[0], b.XB.Host.In().Links()[0]
	if vme.BytesMoved() != 0 || host.BytesMoved() != 4096 {
		t.Fatalf("%s moved %d bytes and %s %d; want 0 and 4096", vme.Name(), vme.BytesMoved(), host.Name(), host.BytesMoved())
	}
}
