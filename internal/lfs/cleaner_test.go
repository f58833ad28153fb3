package lfs

import (
	"bytes"
	"fmt"
	"testing"

	"raidii/internal/sim"
)

func TestCleanerReclaimsDeadSegments(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		// Fill, delete, and verify space comes back.
		for i := 0; i < 10; i++ {
			f, err := fs.Create(p, fmt.Sprintf("/junk%d", i))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = f.WriteAt(p, make([]byte, 200<<10), 0)
		}
		_ = fs.Sync(p)
		for i := 0; i < 10; i++ {
			_ = fs.Remove(p, fmt.Sprintf("/junk%d", i))
		}
		_ = fs.Sync(p)
		before := fs.FreeSegments()
		n, err := fs.Clean(p, before+5)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("cleaner reclaimed nothing")
		}
		if fs.FreeSegments() <= before {
			t.Fatalf("free segments %d -> %d", before, fs.FreeSegments())
		}
	})
	if fs.Stats().SegmentsCleaned == 0 {
		t.Fatal("stats not updated")
	}
}

func TestCleanerPreservesLiveData(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	keep := make([]byte, 300<<10)
	for i := range keep {
		keep[i] = byte(i * 13)
	}
	run(e, func(p *sim.Proc) {
		f, _ := fs.Create(p, "/keep")
		_, _ = f.WriteAt(p, keep, 0)
		// Interleave junk that then dies, fragmenting segments.
		for i := 0; i < 8; i++ {
			g, _ := fs.Create(p, fmt.Sprintf("/junk%d", i))
			_, _ = g.WriteAt(p, make([]byte, 100<<10), 0)
		}
		_ = fs.Sync(p)
		for i := 0; i < 8; i++ {
			_ = fs.Remove(p, fmt.Sprintf("/junk%d", i))
		}
		_ = fs.Sync(p)
		// Ask for more space than the dead blocks can yield: the cleaner
		// must reclaim what exists and stop (ErrNoSpace), never corrupt.
		if _, err := fs.Clean(p, fs.FreeSegments()+6); err != nil && err != ErrNoSpace {
			t.Fatal(err)
		}
		got, err := f.ReadAt(p, 0, len(keep))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, keep) {
			t.Fatal("cleaner corrupted live data")
		}
		r, err := fs.Check(p)
		if err != nil || !r.OK() {
			t.Fatalf("check after clean: %v %+v", err, r)
		}
		if fs.Stats().BlocksMoved == 0 {
			t.Fatal("cleaner moved no blocks despite live data")
		}
	})
}

func TestCleanerSurvivesCheckpointAndRemount(t *testing.T) {
	e := sim.New()
	dev := newDevice(e, 8)
	run(e, func(p *sim.Proc) {
		fs, _ := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		f, _ := fs.Create(p, "/live")
		payload := bytes.Repeat([]byte("z"), 150<<10)
		_, _ = f.WriteAt(p, payload, 0)
		for i := 0; i < 6; i++ {
			g, _ := fs.Create(p, fmt.Sprintf("/dead%d", i))
			_, _ = g.WriteAt(p, make([]byte, 80<<10), 0)
		}
		_ = fs.Sync(p)
		for i := 0; i < 6; i++ {
			_ = fs.Remove(p, fmt.Sprintf("/dead%d", i))
		}
		if _, err := fs.Clean(p, fs.FreeSegments()+4); err != nil && err != ErrNoSpace {
			t.Fatal(err)
		}
		_ = fs.Checkpoint(p)
		fs.Crash()

		fs2, err := Mount(p, e, dev)
		if err != nil {
			t.Fatal(err)
		}
		g, err := fs2.Open(p, "/live")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := g.ReadAt(p, 0, len(payload))
		if !bytes.Equal(got, payload) {
			t.Fatal("moved data lost after remount")
		}
	})
}

func TestAutoCleanUnderSpacePressure(t *testing.T) {
	// A file system near capacity with lots of dead data should keep
	// accepting writes because appendSlot triggers cleaning.
	// 4 data disks x 2 MB = 8 MB usable: ~125 segments of 64 KB.
	e, fs := newFS(t, 64, 2)
	run(e, func(p *sim.Proc) {
		// Repeatedly rewrite the same file; old blocks die each time.
		f, err := fs.Create(p, "/churn")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 256<<10)
		for i := 0; i < 50; i++ {
			for j := range buf {
				buf[j] = byte(i + j)
			}
			if _, err := f.WriteAt(p, buf, 0); err != nil {
				t.Fatalf("rewrite %d: %v", i, err)
			}
			_ = fs.Sync(p)
		}
		got, _ := f.ReadAt(p, 0, len(buf))
		if !bytes.Equal(got, buf) {
			t.Fatal("content wrong after churn")
		}
	})
	if fs.Stats().SegmentsCleaned == 0 {
		t.Fatal("auto-clean never ran despite churn on a small volume")
	}
}

func TestCleanScorePrefersColdEmptySegments(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	_ = e
	// Synthesize usage: segment 5 mostly dead and old; segment 6 full and
	// young.
	fs.free.Remove(5)
	fs.free.Remove(6)
	fs.usageLive[5] = int32(fs.segDataBlks * BlockSize / 10)
	fs.usageSeq[5] = 1
	fs.usageLive[6] = int32(fs.segDataBlks * BlockSize)
	fs.usageSeq[6] = fs.segSeq
	if fs.cleanScore(5) <= fs.cleanScore(6) {
		t.Fatalf("cost-benefit should prefer cold empty segment: %f vs %f",
			fs.cleanScore(5), fs.cleanScore(6))
	}
}

// TestFreeSegmentCountTracksMap: the count appendSlot consults equals a
// scan of the free map after sealing, cleaning and a crash-and-remount.
func TestFreeSegmentCountTracksMap(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	agree := func(p *sim.Proc, fs *FS, when string) {
		t.Helper()
		scan := 0
		for idx := range int(fs.sb.NSegs) {
			if fs.free.Has(idx) {
				scan++
			}
		}
		if fs.FreeSegments() != scan {
			t.Fatalf("%s: FreeSegments() = %d, the map holds %d", when, fs.FreeSegments(), scan)
		}
		if r, err := fs.Check(p); err != nil || !r.OK() {
			t.Fatalf("%s: Check: err=%v report=%+v", when, err, r)
		}
	}
	run(e, func(p *sim.Proc) {
		agree(p, fs, "after format")
		for i := 0; i < 10; i++ {
			f, err := fs.Create(p, fmt.Sprintf("/junk%d", i))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = f.WriteAt(p, make([]byte, 200<<10), 0)
		}
		_ = fs.Sync(p)
		agree(p, fs, "after sealing segments")
		for i := 0; i < 10; i += 2 {
			_ = fs.Remove(p, fmt.Sprintf("/junk%d", i))
		}
		if _, err := fs.Clean(p, fs.FreeSegments()+3); err != nil {
			t.Fatal(err)
		}
		agree(p, fs, "after cleaning")
		if err := fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		dev := fs.dev
		fs.Crash()
		fs2, err := Mount(p, e, dev)
		if err != nil {
			t.Fatal(err)
		}
		agree(p, fs2, "after remount")
	})
}

// TestMoveBlockRepointsIndirects drives moveBlock directly for each kind of
// file block.  The cleaner reaches an indirect block only after the data it
// points to (moving that rewrites the indirect block first), so the
// double-indirect cases never arise from Clean; they must still leave the
// file readable and the file system consistent.
func TestMoveBlockRepointsIndirects(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		f, err := fs.Create(p, "/tall")
		if err != nil {
			t.Fatal(err)
		}
		blocks := []int64{0, NDirect + 5, NDirect + PtrsPerBlock + 3}
		for i, fb := range blocks {
			if _, err := f.WriteAt(p, bytes.Repeat([]byte{byte(i + 1)}, BlockSize), fb*BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		in := fs.icache[f.inum]
		inum := f.inum
		top, err := fs.readBlock(p, in.Ptrs[ptrDInd])
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			e    summaryEntry
			addr func() int64
		}{
			{"data", summaryEntry{kindData, inum, 0}, func() int64 { return in.Ptrs[0] }},
			{"indirect", summaryEntry{kindIndirect, inum, 0}, func() int64 { return in.Ptrs[ptrInd] }},
			{"double-indirect level 2", summaryEntry{kindDIndL2, inum, 0}, func() int64 { return int64(le.Uint64(top)) }},
			{"double-indirect top", summaryEntry{kindDIndTop, inum, 0}, func() int64 { return in.Ptrs[ptrDInd] }},
		} {
			old := c.addr()
			if live, err := fs.blockLive(p, c.e, old); err != nil || !live {
				t.Fatalf("%s block at %d: live=%v err=%v before the move", c.name, old, live, err)
			}
			content, err := fs.readBlock(p, old)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.moveBlock(p, c.e, old, content); err != nil {
				t.Fatalf("move %s: %v", c.name, err)
			}
			if live, _ := fs.blockLive(p, c.e, old); live {
				t.Fatalf("%s block still referenced at its old address %d", c.name, old)
			}
		}
		check := func(when string) {
			t.Helper()
			for i, fb := range blocks {
				got, err := f.ReadAt(p, fb*BlockSize, BlockSize)
				if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, BlockSize)) {
					t.Fatalf("%s: file block %d reads back wrong (err %v)", when, fb, err)
				}
			}
			if r, err := fs.Check(p); err != nil || !r.OK() {
				t.Fatalf("%s: check: %+v, err %v", when, r, err)
			}
		}
		check("after the moves")
		if err := fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		check("after a checkpoint")
	})
}

// TestCleanerDuringPointerRewriteKeepsItsMoves: cold blocks of a file share
// segments with hot ones, so as the hot blocks are overwritten on a log small
// enough to clean all the time, the cleaner moves the cold ones.  When a data
// append seals a segment and leaves the log below its reserve, the cleaner
// must run before the file's indirect block is copied for its rewrite: run
// inside that rewrite's append, it moved this file's blocks, rewrote the
// indirect block, and the rewrite then wrote its older copy over the moves —
// cold pointers into segments the log went on to reuse.
func TestCleanerDuringPointerRewriteKeepsItsMoves(t *testing.T) {
	e, fs := newFS(t, 64, 1)
	const cold, hot = 100, 48 // file blocks from NDirect on are cold, the last hot ones hot
	shadow := make([]byte, (NDirect+cold+hot)*BlockSize)
	write := func(p *sim.Proc, f *File, fb, stamp int) {
		b := shadow[fb*BlockSize : (fb+1)*BlockSize]
		for j := range b {
			b[j] = byte(stamp + j)
		}
		if _, err := f.WriteAt(p, b, int64(fb)*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	run(e, func(p *sim.Proc) {
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < cold; k++ {
			write(p, f, NDirect+k, k)
			write(p, f, NDirect+cold+k%hot, -k)
		}
		x := uint32(1)
		for i := 1; i <= 3000; i++ {
			x = x*1103515245 + 12345
			write(p, f, NDirect+cold+int(x>>8)%hot, i)
			if i%100 != 0 {
				continue
			}
			got, err := f.ReadAt(p, 0, len(shadow))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, shadow) {
				t.Fatalf("after %d overwrites (%d segments cleaned) the file reads back wrong", i, fs.Stats().SegmentsCleaned)
			}
		}
	})
	if fs.Stats().SegmentsCleaned < 50 {
		t.Fatalf("only %d segments cleaned: the log never turned over", fs.Stats().SegmentsCleaned)
	}
}
