package lfs

import (
	"bytes"
	"testing"

	"raidii/internal/sim"
)

// readDev returns n blocks of the memory device starting at block addr.
func readDev(t *testing.T, dev *slowDev, addr int64, n int) []byte {
	t.Helper()
	raw, err := dev.MemDev.Read(nil, addr*(BlockSize/512), n*(BlockSize/512))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWriteAtCopiesOnce: WriteAt takes its own copy of the caller's bytes —
// the one into the segment image — so scribbling on the buffer afterwards
// changes nothing: not while the blocks are in the current segment, not
// while their sealed segment is in flight, not once they are on the device.
func TestWriteAtCopiesOnce(t *testing.T) {
	e := sim.New()
	dev := newSlowDev(8)
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		want := pinPattern(10*BlockSize+77, 0x5a)
		buf := bytes.Clone(want)
		if _, err := f.WriteAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xee
		}
		check := func(when string) {
			t.Helper()
			got, err := f.ReadAt(p, 0, len(want))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: the file follows the caller's buffer (err %v)", when, err)
			}
		}
		if fs.currentSlot(fs.icache[f.inum].Ptrs[0]) == nil {
			t.Fatal("block 0 is not in the current segment: nothing staged to test")
		}
		check("staged")

		// Seal without waiting: 20 more blocks push the first segment out.
		if _, err := f.WriteAt(p, pinPattern(20*BlockSize, 0x5b), 16*BlockSize); err != nil {
			t.Fatal(err)
		}
		addr := fs.icache[f.inum].Ptrs[0]
		if fs.currentSlot(addr) != nil || fs.stagedBlock(addr) == nil {
			t.Fatal("block 0 is not in a sealed, in-flight segment")
		}
		check("in flight")

		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if fs.Pending() != 0 {
			t.Fatalf("%d segment images still held after Sync", fs.Pending())
		}
		check("on the device")
	})
}

// TestSealedImageIsNeverPatched: once a segment is sealed its image belongs
// to the device write.  Overwriting one of its blocks — whole, or part of
// it — while the write is still in flight appends a new block to the
// current segment and leaves the sealed image, and so what the device ends
// up holding at the old address, exactly as sealed.
func TestSealedImageIsNeverPatched(t *testing.T) {
	e := sim.New()
	dev := newSlowDev(8)
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		first := pinPattern(20*BlockSize, 0x31)
		if _, err := f.WriteAt(p, first, 0); err != nil {
			t.Fatal(err)
		}
		in := fs.icache[f.inum]
		old2, old3 := in.Ptrs[2], in.Ptrs[3]
		seg := fs.segOf(old2)
		image := fs.inflight[seg]
		if image == nil || fs.segOf(old3) != seg {
			t.Fatal("blocks 2 and 3 are not in one sealed, in-flight segment")
		}
		sealed := bytes.Clone(image)

		// A whole-block and a sub-block overwrite, and an inode flush, while
		// the seal is in flight.
		whole := pinPattern(BlockSize, 0x32)
		part := pinPattern(100, 0x33)
		if _, err := f.WriteAt(p, whole, 2*BlockSize); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, part, 3*BlockSize+500); err != nil {
			t.Fatal(err)
		}
		if fs.inflight[seg] == nil {
			t.Fatal("the seal completed before the overwrites: nothing was in flight")
		}
		new2, new3 := in.Ptrs[2], in.Ptrs[3]
		if new2 == old2 || new3 == old3 || fs.currentSlot(new2) == nil || fs.currentSlot(new3) == nil {
			t.Fatalf("overwrites of in-flight blocks were not appended to the current segment (%d→%d, %d→%d)", old2, new2, old3, new3)
		}
		if !bytes.Equal(image, sealed) {
			t.Fatal("a sealed image changed while its write was in flight")
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}

		// The device: the old segment as sealed, the new blocks where the
		// inode points.
		if got := readDev(t, dev, fs.segAddr(seg), len(sealed)/BlockSize); !bytes.Equal(got, sealed) {
			t.Fatal("the device does not hold the old segment as it was sealed")
		}
		if got := readDev(t, dev, old2, 1); !bytes.Equal(got, first[2*BlockSize:3*BlockSize]) {
			t.Fatal("the old copy of block 2 changed on the device")
		}
		if got := readDev(t, dev, new2, 1); !bytes.Equal(got, whole) {
			t.Fatal("the new block 2 is not on the device")
		}
		want3 := bytes.Clone(first[3*BlockSize : 4*BlockSize])
		copy(want3[500:], part)
		if got := readDev(t, dev, new3, 1); !bytes.Equal(got, want3) {
			t.Fatal("the new block 3 is not the old one with the patch applied")
		}
		got, err := f.ReadAt(p, 2*BlockSize, 2*BlockSize)
		if err != nil || !bytes.Equal(got, append(bytes.Clone(whole), want3...)) {
			t.Fatalf("the file reads back wrong (err %v)", err)
		}
	})
}

// TestFailedSealKeepsItsImage: a segment whose device write failed never
// reached the array, so its image stays in the in-flight table and its
// blocks stay readable; the error is latched for the next append or sync.
func TestFailedSealKeepsItsImage(t *testing.T) {
	e := sim.New()
	dev := newSlowDev(8)
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		want := pinPattern(5*BlockSize, 0x71)
		if _, err := f.WriteAt(p, want, 0); err != nil {
			t.Fatal(err)
		}
		dev.Fail()
		if err := fs.Sync(p); err == nil {
			t.Fatal("Sync over a failed device returned nil")
		}
		if fs.Pending() != 1 {
			t.Fatalf("Pending() = %d after a failed seal, want the one lost image", fs.Pending())
		}
		got, err := f.ReadAt(p, 0, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("blocks of the lost segment are not readable from its image (err %v)", err)
		}
		if _, err := f.WriteAt(p, want, 0); err == nil {
			t.Fatal("an append after a lost segment returned nil")
		}
	})
}
