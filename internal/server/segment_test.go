package server

import (
	"fmt"
	"testing"

	"raidii/internal/raid"
	"raidii/internal/sim"
)

// TestSegmentIsWholeStripes pins the segment each board derives from its
// array: as many whole stripes as fit in 960 KB, one when a stripe is
// larger, and whole file-system blocks.
func TestSegmentIsWholeStripes(t *testing.T) {
	for _, c := range []struct {
		level      raid.Level
		perString  int
		wantKB     int
		wantStripe int // stripes per segment
	}{
		{raid.Level5, 2, 960, 1},  // Fig. 8
		{raid.Level5, 3, 1472, 1}, // the default 24-disk board
		{raid.Level5, 1, 896, 2},
		{raid.Level6, 2, 896, 1},
		{raid.Level6, 1, 768, 2},
		{raid.Level6, 3, 1408, 1},
		{raid.Level0, 2, 1024, 1},
		{raid.Level1, 2, 512, 1},
		{raid.Level1, 1, 768, 3},
		{raid.Level3, 2, 960, 128},
		{raid.Level3, 3, 920, 80}, // 83 stripes of 11.5 KB are not whole blocks
	} {
		cfg := DefaultConfig()
		cfg.RAIDLevel, cfg.DisksPerString = c.level, c.perString
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := sys.Boards[0]
		a := b.Array
		stripe := a.DataDisks() * a.StripeUnitSectors() * a.SectorSize()
		if got := b.fsCfg.SegBytes; got != c.wantKB<<10 || got != c.wantStripe*stripe {
			t.Errorf("level %d, %d disks: segment %d KB (%d-byte stripes), want %d KB = %d stripes",
				c.level, a.Width(), got>>10, stripe, c.wantKB, c.wantStripe)
		}
	}
	cfg := DefaultConfig()
	cfg.LFS.SegBytes = 1400 << 10
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Boards[0].fsCfg.SegBytes; got != 1400<<10 {
		t.Errorf("a configured 1400 KB segment became %d KB", got>>10)
	}
}

// TestFullStripeSealProperty: on every level and width, a sequential fill
// through FSWrite seals whole segments, each one whole stripes of the
// array, so the array computes its check columns from the new data alone.
// It makes no reconstruct writes and reads nothing; the one small write
// allowed is the closing partial seal.
func TestFullStripeSealProperty(t *testing.T) {
	const fill, piece = 64 << 20, 1 << 20
	for _, level := range []raid.Level{raid.Level0, raid.Level1, raid.Level5, raid.Level6} {
		for _, perString := range []int{1, 2, 3} {
			cfg := DefaultConfig()
			cfg.RAIDLevel, cfg.DisksPerString = level, perString
			t.Run(fmt.Sprintf("level%d/%ddisks", level, 8*perString), func(t *testing.T) {
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b := sys.Boards[0]
				var before, after raid.Stats
				var took sim.Duration
				sys.Eng.Spawn("fill", func(p *sim.Proc) {
					if err := b.FormatFS(p); err != nil {
						t.Error(err)
						return
					}
					f, err := b.CreateFS(p, "/fill")
					if err != nil {
						t.Error(err)
						return
					}
					data := streamPattern(piece, 7)
					before = b.Array.Stats()
					start := p.Now()
					for off := 0; off < fill; off += piece {
						if err := b.FSWrite(p, f, int64(off), data); err != nil {
							t.Error(err)
							return
						}
					}
					if err := b.FS.Sync(p); err != nil {
						t.Error(err)
						return
					}
					took = p.Now().Sub(start)
					after = b.Array.Stats()
				})
				sys.Eng.Run()
				sys.Eng.Shutdown()
				full := after.FullStripeWrites - before.FullStripeWrites
				recon := after.ReconstructWrites - before.ReconstructWrites
				small := after.SmallWrites - before.SmallWrites
				reads := after.DiskReads - before.DiskReads
				t.Logf("segment %d KB: %.2f MB/s, %d full-stripe, %d reconstruct, %d small writes, %d device reads",
					b.fsCfg.SegBytes>>10, float64(fill)/1e6/took.Seconds(), full, recon, small, reads)
				if recon != 0 || small > 1 || reads != 0 {
					t.Errorf("%d reconstruct writes, %d small writes, %d device reads; want 0, at most 1, 0", recon, small, reads)
				}
				if level >= raid.Level5 && full == 0 {
					t.Error("no full-stripe writes")
				}
			})
		}
	}
}
