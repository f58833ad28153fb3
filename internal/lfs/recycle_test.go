package lfs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"raidii/internal/raid"
	"raidii/internal/sim"
)

// holdDev is a slow device that, like an array with a write in progress,
// holds the buffer it was handed for the whole of its Write, and fails the
// test if anybody changes the buffer in that time.  It remembers the last
// buffer it was handed.
type holdDev struct {
	*slowDev
	t    *testing.T
	last []byte
}

func (d *holdDev) Write(p *sim.Proc, lba int64, data []byte) error {
	before := sha256.Sum256(data)
	err := d.slowDev.Write(p, lba, data)
	if sha256.Sum256(data) != before {
		d.t.Errorf("the buffer written at sector %d changed while its Write was in progress", lba)
	}
	d.last = bytes.Clone(data)
	return err
}

// partialSeals overwrites the first four blocks of f and makes them durable,
// n times: the synchronous small write's shape, one small partial seal each.
func partialSeals(tb testing.TB, p *sim.Proc, f *File, data []byte, n int) {
	for i := 0; i < n; i++ {
		if _, err := f.WriteAt(p, data, 0); err != nil {
			tb.Fatal(err)
		}
		if err := f.Sync(p); err != nil {
			tb.Fatal(err)
		}
	}
}

// sealLoopFS formats dev with 256 KB segments and creates the file the
// partial-seal loops overwrite.
func sealLoopFS(tb testing.TB, p *sim.Proc, e *sim.Engine, dev Device) (*FS, *File) {
	fs, err := Format(p, e, dev, Config{SegBytes: 256 << 10, MaxInodes: 1024, CleanReserve: 3})
	if err != nil {
		tb.Fatal(err)
	}
	f, err := fs.Create(p, "/journal")
	if err != nil {
		tb.Fatal(err)
	}
	return fs, f
}

// TestPartialSealAllocationCeiling: a segment image goes back to the free
// list when its write completes, so a loop of small durable writes — one
// image filling, one in flight — allocates no image after the first few.  An
// image per seal was 200 of them here.
func TestPartialSealAllocationCeiling(t *testing.T) {
	e := sim.New()
	run(e, func(p *sim.Proc) {
		fs, f := sealLoopFS(t, p, e, newSlowDev(64))
		data := pinPattern(4*BlockSize, 0x61)
		partialSeals(t, p, f, data, 4) // warm-up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		partialSeals(t, p, f, data, 200)
		runtime.ReadMemStats(&after)
		if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(2*fs.SegmentBytes()); got >= ceiling {
			t.Errorf("200 four-block Syncs allocated %d bytes, want under two segment images (%d)", got, ceiling)
		}
		if st := fs.Stats(); st.PartialSegSeals < 200 {
			t.Fatalf("only %d partial seals: the loop did not do what it is named for", st.PartialSegSeals)
		}
	})
}

// BenchmarkLFSPartialSealLoop is 100 four-block durable overwrites on a slow
// device: what a synchronous small write costs the host in the file system.
func BenchmarkLFSPartialSealLoop(b *testing.B) {
	data := pinPattern(4*BlockSize, 0x61)
	dev := newSlowDev(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.New()
		run(e, func(p *sim.Proc) {
			_, f := sealLoopFS(b, p, e, dev)
			partialSeals(b, p, f, data, 100)
		})
	}
}

// TestRecycledImageTailIsZero: an image that carried a full segment comes
// back for a three-block partial seal, and the device is handed the three
// blocks, their summary and zeros — the very bytes it was handed when every
// seal had a fresh image (the hash below is of the image at the parent of
// the change that introduced recycling, as in testdata/devimage_pin.txt).
func TestRecycledImageTailIsZero(t *testing.T) {
	const parentImage = "7a9fc58a91be89416dd0f8652e157e581797082598e1e6da661bc03ab4cbb91d"
	e := sim.New()
	dev := &holdDev{slowDev: newSlowDev(8), t: t}
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		// Fill the current segment exactly: the data blocks, then the two
		// inodes Sync flushes (the root directory's and the file's).
		room := fs.segDataBlks - len(fs.segEntries) - 2
		if room < 4 || room > NDirect {
			t.Fatalf("%d blocks of room: the script no longer fills one segment with direct blocks", room)
		}
		if _, err := f.WriteAt(p, pinPattern(room*BlockSize, 0xf1), 0); err != nil {
			t.Fatal(err)
		}
		full := fs.segImage
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if st := fs.Stats(); st.PartialSegSeals != 1 || fs.Pending() != 0 { // 1: Format's checkpoint
			t.Fatalf("the full segment sealed as a partial one or is still pending (%d partial seals, %d pending)", st.PartialSegSeals, fs.Pending())
		}

		// Two data blocks and the inode, into the image that was full.
		if _, err := f.WriteAt(p, pinPattern(2*BlockSize, 0xf2), 0); err != nil {
			t.Fatal(err)
		}
		if &fs.segImage[0] != &full[0] {
			t.Fatal("the partial segment did not take over the full segment's image")
		}
		if err := f.Sync(p); err != nil {
			t.Fatal(err)
		}
		image := dev.last
		if len(image) != fs.SegmentBytes() {
			t.Fatalf("the last write was %d bytes, not a segment", len(image))
		}
		if tail := image[4*BlockSize:]; !bytes.Equal(tail, make([]byte, len(tail))) {
			t.Error("the device was handed the full segment's old bytes past the partial segment's three blocks")
		}
		if !bytes.Equal(image[BlockSize:3*BlockSize], pinPattern(2*BlockSize, 0xf2)) {
			t.Error("the partial segment's data blocks are not in the image")
		}
		sum := sha256.Sum256(image)
		if got := hex.EncodeToString(sum[:]); got != parentImage {
			t.Errorf("partial segment image hashes to %s, want %s", got, parentImage)
		}
	})
}

// TestRecycledImagesWithSealsOverlapping: a writer that keeps going while
// its segments stream out fills images that came back from completed writes
// while other writes are still in progress.  No buffer changes under a write
// (holdDev), and the file reads back from the device.
func TestRecycledImagesWithSealsOverlapping(t *testing.T) {
	e := sim.New()
	dev := &holdDev{slowDev: newSlowDev(8), t: t}
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		want := pinPattern(40*48<<10, 0xc3)
		images := map[*byte]bool{}
		for off := 0; off < len(want); off += 48 << 10 {
			if _, err := f.WriteAt(p, want[off:off+48<<10], int64(off)); err != nil {
				t.Fatal(err)
			}
			images[&fs.segImage[0]] = true
			p.Wait(2e6) // a seal takes 3 ms: one or two are always in progress
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if seals := int(fs.Stats().SegmentsWritten); len(images) > imagePool || seals < 30 {
			t.Fatalf("%d segments written from at least %d images: the writes did not overlap recycling", seals, len(images))
		}
		fs.Crash()
		if fs, err = Mount(p, e, dev); err != nil {
			t.Fatal(err)
		}
		if f, err = fs.Open(p, "/f"); err != nil {
			t.Fatal(err)
		}
		if got, err := f.ReadAt(p, 0, len(want)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the file does not read back from the device (err %v)", err)
		}
	})
}

// gateDev blocks every Write until open is signalled, then fails it if fail
// is set, or if failOnce is and it is the first to come through.
type gateDev struct {
	*raid.MemDev
	open     *sim.Event
	fail     bool
	failOnce bool
}

var errGate = errors.New("gate: write refused")

func (d *gateDev) Write(p *sim.Proc, lba int64, data []byte) error {
	if d.open != nil {
		d.open.Wait(p)
	}
	if d.fail || d.failOnce {
		d.failOnce = false
		return errGate
	}
	return d.MemDev.Write(p, lba, data)
}

// TestImageNotRecycledWhileInFlightOrFailed: an image stays out of the free
// list, and its blocks stay readable from it, for as long as the device has
// not taken it — while the write is blocked, and for good when it fails.
func TestImageNotRecycledWhileInFlightOrFailed(t *testing.T) {
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("fail=%v", fail), func(t *testing.T) {
			e := sim.New()
			dev := &gateDev{MemDev: raid.NewMemDev(8<<20/512, 512)}
			run(e, func(p *sim.Proc) {
				fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
				if err != nil {
					t.Fatal(err)
				}
				f, err := fs.Create(p, "/f")
				if err != nil {
					t.Fatal(err)
				}
				dev.open, dev.fail = sim.NewEvent(e), fail
				free := fs.images.Len()

				// Twenty blocks push the first segment out, into the gate.
				want := pinPattern(20*BlockSize, 0x91)
				if _, err := f.WriteAt(p, want, 0); err != nil {
					t.Fatal(err)
				}
				p.Wait(1e9)
				addr := fs.icache[f.inum].Ptrs[0]
				if fs.Pending() != 2 || fs.images.Len() != free {
					t.Fatalf("write blocked: %d images pending (want the sealed and the current one), free list %d -> %d", fs.Pending(), free, fs.images.Len())
				}
				if b := fs.stagedBlock(addr); fs.currentSlot(addr) != nil || !bytes.Equal(b, want[:BlockSize]) {
					t.Fatal("write blocked: the sealed block is not served from its image")
				}

				dev.open.Signal()
				err = fs.Sync(p)
				switch {
				case !fail:
					if err != nil || fs.Pending() != 0 || fs.images.Len() != free+2 || fs.stagedBlock(addr) != nil {
						t.Fatalf("writes completed: err %v, %d pending, free list %d -> %d (want both images)", err, fs.Pending(), free, fs.images.Len())
					}
				case !errors.Is(err, errGate):
					t.Fatalf("Sync over a refused write returned %v", err)
				case fs.images.Len() != free:
					t.Fatalf("the image of a failed seal went to the free list (%d -> %d)", free, fs.images.Len())
				case !bytes.Equal(fs.stagedBlock(addr), want[:BlockSize]):
					t.Fatal("the block of a failed seal is not served from its image")
				}
			})
		})
	}
}

// TestPoisonedRunBuffers: with garbage in every buffer readRun recycles,
// reads that start or end inside a block, cross the hole or cover staged
// blocks — the runs that go through a buffer — return the written bytes.
func TestPoisonedRunBuffers(t *testing.T) {
	e, dev := sim.New(), newCmdDev()
	want := pieceFileBytes()
	run(e, func(p *sim.Proc) {
		fs, f := writePieceFile(t, p, e, dev)
		used := 0
		for _, r := range pieceRanges {
			for fs.runBufs.Len() > 0 {
				fs.runBufs.Get(0)
			}
			for fs.runBufs.Put(bytes.Repeat([]byte{0xA5}, pieceFileSize)) {
			}
			got, err := f.ReadAt(p, r[0], int(r[1]))
			lo, hi := min(r[0], pieceFileSize), min(r[0]+r[1], pieceFileSize)
			if err != nil || !bytes.Equal(got, want[lo:hi]) {
				t.Fatalf("read %d +%d returned wrong bytes (err %v)", r[0], r[1], err)
			}
			if top := fs.runBufs.Get(0); bytes.Count(top[:cap(top)], []byte{0xA5}) < cap(top) {
				used++
			}
		}
		if used == 0 {
			t.Fatal("no read went through a recycled run buffer")
		}
	})
}

// recycledImages fills a dozen segments with 0xa5 and syncs, so every image
// in the pool holds them, and returns a new empty file.
func recycledImages(t *testing.T, p *sim.Proc, fs *FS) *File {
	a, err := fs.Create(p, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteAt(p, bytes.Repeat([]byte{0xa5}, 12*fs.SegmentBytes()), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(p); err != nil {
		t.Fatal(err)
	}
	b, err := fs.Create(p, "/b")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHoleWriteInRecycledImageReadsZeros: a segment image comes back from
// the pool holding its last segment's blocks, and nothing clears it whole.
// A write of a few bytes into a hole lands in such a slot; the rest of its
// block reads as zeros, staged and after the seal, and the partial seal
// leaves nothing of the old segment on the device past its last block.
func TestHoleWriteInRecycledImageReadsZeros(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		b := recycledImages(t, p, fs)
		const off = 5*BlockSize + 1000
		data := []byte("a few bytes in a hole")
		if _, err := b.WriteAt(p, data, off); err != nil {
			t.Fatal(err)
		}
		if fs.segStale == 0 {
			t.Fatal("the open segment's image is not a recycled one")
		}
		want := make([]byte, off+len(data))
		copy(want[off:], data)
		check := func(when string) {
			got, err := b.ReadAt(p, 0, len(want)+BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: the file reads other bytes than zeros around the write", when)
			}
		}
		check("staged")
		seg := fs.curSeg
		if err := b.Sync(p); err != nil {
			t.Fatal(err)
		}
		check("sealed")
		if err := fs.waitSeals(p); err != nil {
			t.Fatal(err)
		}
		raw, err := fs.dev.Read(p, seg*int64(fs.blockSectors), int(fs.sb.SegBlocks)*fs.blockSectors)
		if err != nil {
			t.Fatal(err)
		}
		var sum summary
		if err := sum.unmarshal(fs.summaryOf(raw)); err != nil {
			t.Fatal(err)
		}
		used := int64(fs.sumBlks + len(sum.Entries))
		if i := bytes.IndexByte(raw[used*BlockSize:], 0xa5); i >= 0 {
			t.Errorf("the partial seal wrote the old segment's bytes at block %d", used+int64(i/BlockSize))
		}
	})
}

// TestCrashTailHoldsNoStaleBytes: the open segment a crash hands over sits in
// a recycled image.  A mount rolls that image forward as its open segment
// and seals it later, so past its blocks it must hold nothing of the
// segment the image held before.
func TestCrashTailHoldsNoStaleBytes(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		b := recycledImages(t, p, fs)
		if _, err := b.WriteAt(p, bytes.Repeat([]byte{0x3c}, BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if fs.segStale == 0 {
			t.Fatal("the open segment's image is not a recycled one")
		}
		tail := fs.Crash()
		for _, s := range tail.segs {
			if s.entries == nil {
				continue
			}
			if i := bytes.IndexByte(s.image[(fs.sumBlks+len(s.entries))*BlockSize:], 0xa5); i >= 0 {
				t.Errorf("the crash's open image holds the old segment's bytes %d bytes past its last block", i)
			}
			return
		}
		t.Error("the crash handed over no open segment")
	})
}
