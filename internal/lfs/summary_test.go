package lfs

import (
	"slices"
	"strings"
	"testing"

	"raidii/internal/sim"
)

// FuzzSummary: for a segment of 4 to 512 blocks, the summary takes the
// fewest blocks that describe every other block — one up to 339 — and a
// summary of any entry count up to that capacity comes back from its
// blocks as it went in.  A byte flipped anywhere in the summary blocks,
// past the CRC included, is rejected.
func FuzzSummary(f *testing.F) {
	f.Add(uint16(240), uint16(239), uint64(7), uint32(0), byte(1))       // Fig. 8: 960 KB, full
	f.Add(uint16(339), uint16(338), uint64(9), uint32(4095), byte(0x80)) // the longest one-block segment
	f.Add(uint16(340), uint16(338), uint64(1), uint32(4096), byte(3))    // the shortest two-block one
	f.Add(uint16(368), uint16(366), uint64(2), uint32(5000), byte(0xff)) // the default board, 1472 KB
	f.Add(uint16(512), uint16(0), uint64(3), uint32(8191), byte(1))
	f.Add(uint16(4), uint16(3), uint64(5), uint32(28), byte(1)) // the first entry's kind
	f.Fuzz(func(t *testing.T, segBlocks, n uint16, seed uint64, at uint32, flip byte) {
		blocks := int(segBlocks)
		if blocks < 4 || blocks > 512 {
			blocks = 4 + blocks%509
		}
		k := summaryBlocks(blocks)
		if summaryCapacity(k) < blocks-k || k > 1 && summaryCapacity(k-1) >= blocks-k+1 || blocks <= 339 && k != 1 {
			t.Fatalf("a %d-block segment gets %d summary blocks", blocks, k)
		}
		want := summary{Seq: seed, Time: int64(seed >> 3), NextSeg: int64(seed % 1e9)}
		for i := range int(n) % (blocks - k + 1) {
			x := uint32(seed) + uint32(i)*2654435761
			want.Entries = append(want.Entries, summaryEntry{Kind: 1 + x%7, Arg1: x >> 3, Arg2: x ^ uint32(i)})
		}
		buf := make([]byte, k*BlockSize)
		want.marshal(buf)
		var got summary
		if err := got.unmarshal(buf); err != nil {
			t.Fatalf("%d blocks, %d entries: %v", blocks, len(want.Entries), err)
		}
		if got.Seq != want.Seq || got.Time != want.Time || got.NextSeg != want.NextSeg || !slices.Equal(got.Entries, want.Entries) {
			t.Fatalf("%d blocks, %d entries: read back %+v", blocks, len(want.Entries), got)
		}
		if flip == 0 {
			flip = 1
		}
		buf[int(at)%len(buf)] ^= flip
		if err := got.unmarshal(buf); err == nil {
			t.Fatalf("%d blocks, %d entries: byte %d flipped by %#x and the summary was accepted", blocks, len(want.Entries), int(at)%len(buf), flip)
		}
	})
}

// TestCheckRejectsPointerIntoSummary: in a 1400 KB segment the second block
// is summary, not data, and Check reports a pointer to it.
func TestCheckRejectsPointerIntoSummary(t *testing.T) {
	e, fs := newFS(t, 1400, 64)
	if fs.sumBlks != 2 {
		t.Fatalf("a 1400 KB segment has %d summary blocks, want 2", fs.sumBlks)
	}
	run(e, func(p *sim.Proc) {
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, make([]byte, BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		rep, err := fs.Check(p)
		if err != nil || !rep.OK() {
			t.Fatalf("Check before: %+v, %v", rep, err)
		}
		fs.icache[f.Inum()].Ptrs[0] = fs.segAddr(0) + 1
		rep, err = fs.Check(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.BadPointers) != 1 || !strings.Contains(rep.BadPointers[0], "summary") {
			t.Errorf("Check with a pointer into summary blocks: %q", rep.BadPointers)
		}
	})
}
