package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"raidii/internal/sim"
)

// FuzzBlockMap decodes its input into operations on two files whose blocks
// sit in every tier of the pointer tree — direct, indirect, and under the
// double-indirect top and second-level blocks — and holds them to a
// byte-slice oracle: whole-block and partial writes, reads, Truncate, Remove
// of a file (recreated empty), Clean, Sync, and Sync then Crash then Mount.
// Every read must match the oracle, and Check must be clean after every
// Clean, every Mount and at the end.
func FuzzBlockMap(f *testing.F) {
	for _, s := range blockMapSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 600 {
			t.Skip("long inputs only repeat the operations short ones have")
		}
		blockMapRun(t, ops)
	})
}

// TestBlockMapSeedsReachEveryTier: the seed corpus writes in every tier of
// the tree and has a Clean move second-level blocks by themselves, which
// only happens when the segment that holds one is not the one that holds the
// data blocks it points to.
func TestBlockMapSeedsReachEveryTier(t *testing.T) {
	var reach blockMapReach
	for _, s := range blockMapSeeds() {
		r := blockMapRun(t, s)
		for i := range reach.tiers {
			reach.tiers[i] = reach.tiers[i] || r.tiers[i]
		}
		reach.l2Moved += r.l2Moved
	}
	for i, ok := range reach.tiers {
		if !ok {
			t.Errorf("no seed writes in tier %d", i)
		}
	}
	if reach.l2Moved == 0 {
		t.Error("no seed has the cleaner move a second-level block")
	}
}

// TestBlockMapShape: childOf is parentOf turned round for every slot of every
// block of the tree, the tree's data blocks are each file block once, and
// parentOf and dataBlock refuse what the tree has no place for.
func TestBlockMapShape(t *testing.T) {
	const inum = 7
	parents := []summaryEntry{{Kind: kindInode, Arg1: inum}, {Kind: kindIndirect, Arg1: inum}, {Kind: kindDIndTop, Arg1: inum}}
	for l1 := uint32(0); l1 < PtrsPerBlock; l1++ {
		parents = append(parents, summaryEntry{Kind: kindDIndL2, Arg1: inum, Arg2: l1})
	}
	seen := make([]bool, MaxFileBlocks)
	for _, b := range parents {
		slots := int64(PtrsPerBlock)
		if b.Kind == kindInode {
			slots = int64(len(inode{}.Ptrs))
		}
		for i := int64(0); i < slots; i++ {
			c := childOf(b, i)
			if up, j, err := parentOf(c); err != nil || up != b || j != i {
				t.Fatalf("slot %d of %+v names %+v, whose pointer parentOf puts in slot %d of %+v (err %v)", i, b, c, j, up, err)
			}
			if c.Kind == kindData {
				if seen[c.Arg2] {
					t.Fatalf("file block %d has two places", c.Arg2)
				}
				seen[c.Arg2] = true
			}
		}
	}
	for fb, ok := range seen {
		if !ok {
			t.Fatalf("file block %d has no place", fb)
		}
	}
	for _, b := range []summaryEntry{
		{Kind: kindData, Arg1: inum, Arg2: uint32(MaxFileBlocks)},
		{Kind: kindDIndL2, Arg1: inum, Arg2: PtrsPerBlock},
		{Kind: kindImap, Arg1: inum},
	} {
		if _, _, err := parentOf(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("parentOf(%+v): err %v, want ErrCorrupt", b, err)
		}
	}
	for _, fb := range []int64{-1, MaxFileBlocks, 1 << 32} {
		if _, err := dataBlock(inum, fb); err == nil {
			t.Errorf("dataBlock(%d) names a block", fb)
		}
	}
}

// TestRemoveCachesNoDeadPointerBlock: freeing a file reads each pointer block
// before it kills it, so one read from the device to learn what it names
// enters the metadata cache and leaves it again as it dies.  Killed first, it
// would stay cached under an address the log goes on to reuse.
func TestRemoveCachesNoDeadPointerBlock(t *testing.T) {
	e := sim.New()
	dev := newDevice(e, 8)
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		for _, fb := range []int64{NDirect, NDirect + PtrsPerBlock} {
			if _, err := f.WriteAt(p, pinPattern(BlockSize, 1), fb*BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		fs.Crash()
		if fs, err = Mount(p, e, dev); err != nil { // an empty metadata cache
			t.Fatal(err)
		}
		in, err := fs.loadInode(p, f.inum)
		if err != nil {
			t.Fatal(err)
		}
		top, err := fs.readBlock(p, in.Ptrs[ptrDInd])
		if err != nil {
			t.Fatal(err)
		}
		dead := []int64{in.Ptrs[ptrInd], in.Ptrs[ptrDInd], ptrAt(top, 0)}
		if err := fs.Remove(p, "/f"); err != nil {
			t.Fatal(err)
		}
		for _, addr := range dead {
			if _, ok := fs.metaCache[addr]; ok {
				t.Errorf("pointer block %d is cached after its file was removed", addr)
			}
		}
	})
}

// The operations: the low three bits of an operation's byte, and bit 3 the
// file it works on.  Arguments follow in the bytes after it.
const (
	bmWrite    = iota // tier, b: the whole of file block pick(tier, b)
	bmPartial         // tier, b, at, n: 1+32n bytes from 16at into the block
	bmRead            // tier, b, at, n: 1+40n bytes from 16at-64 bytes into it
	bmTruncate        //
	bmRemove          // remove the file and create it again, empty
	bmClean           // n: clean until 1+n%4 more segments are free
	bmSync            //
	bmCrash           // Sync, Crash, Mount
)

// bmPick maps an argument pair to a file block of tier%4: direct; indirect;
// under one of the first four second-level blocks; and the tree's last blocks,
// under the top block's last slots.
func bmPick(tier, b byte) int64 {
	switch tier % 4 {
	case 0:
		return int64(b) % NDirect
	case 1:
		return NDirect + int64(b)*2
	case 2:
		return NDirect + PtrsPerBlock + int64(b%4)*PtrsPerBlock + int64(b/4)
	}
	return MaxFileBlocks - 1 - int64(b)*3
}

// blockMapReach is what a run reached: the tiers it wrote in, and the
// second-level blocks a Clean moved unchanged.
type blockMapReach struct {
	tiers   [4]bool
	l2Moved int
}

// bmShadow is the oracle for one file: its size and its written blocks.
type bmShadow struct {
	size   int64
	blocks map[int64][]byte
}

func (s *bmShadow) write(data []byte, off int64) {
	for i := 0; i < len(data); {
		fb, bo := (off+int64(i))/BlockSize, int((off+int64(i))%BlockSize)
		b := s.blocks[fb]
		if b == nil {
			b = make([]byte, BlockSize)
			s.blocks[fb] = b
		}
		i += copy(b[bo:], data[i:])
	}
	s.size = max(s.size, off+int64(len(data)))
}

// read returns what a read of n bytes at off must return.
func (s *bmShadow) read(off int64, n int) []byte {
	if off >= s.size {
		return nil
	}
	out := make([]byte, min(int64(n), s.size-off))
	for i := 0; i < len(out); {
		fb, bo := (off+int64(i))/BlockSize, int((off+int64(i))%BlockSize)
		if b := s.blocks[fb]; b != nil {
			i += copy(out[i:], b[bo:])
		} else {
			i += min(BlockSize-bo, len(out)-i)
		}
	}
	return out
}

// blockMapRun runs ops on a fresh file system and reports what they reached.
func blockMapRun(t *testing.T, ops []byte) blockMapReach {
	t.Helper()
	e, fs := newFS(t, 64, 2)
	defer e.Shutdown() // the engine keeps its pooled process shells until then
	var reach blockMapReach
	names := [2]string{"/a", "/b"}
	var files [2]*File
	var shadow [2]bmShadow
	arg := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	run(e, func(p *sim.Proc) {
		must := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		check := func(when string) {
			t.Helper()
			r, err := fs.Check(p)
			if err != nil || !r.OK() {
				t.Fatalf("check %s: %+v, err %v", when, r, err)
			}
		}
		verify := func(when string, j int) {
			t.Helper()
			if n, err := files[j].Size(p); err != nil || n != shadow[j].size {
				t.Fatalf("%s: %s is %d bytes (err %v), want %d", when, names[j], n, err, shadow[j].size)
			}
			for fb := range shadow[j].blocks {
				got, err := files[j].ReadAt(p, fb*BlockSize, BlockSize)
				if want := shadow[j].read(fb*BlockSize, BlockSize); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: %s block %d reads back wrong (err %v)", when, names[j], fb, err)
				}
			}
		}
		create := func(j int) {
			var err error
			files[j], err = fs.Create(p, names[j])
			must("create "+names[j], err)
			shadow[j] = bmShadow{blocks: make(map[int64][]byte)}
		}
		create(0)
		create(1)
		var cleaned uint64 // fs.Stats().SegmentsCleaned at the last checkpoint
		for k := 0; len(ops) > 0; k++ {
			op := arg()
			j := int(op>>3) & 1
			f, s := files[j], &shadow[j]
			what := fmt.Sprintf("op %d (%d on %s)", k, op&7, names[j])
			switch op & 7 {
			case bmWrite, bmPartial, bmRead:
				tier, b := arg(), arg()
				reach.tiers[tier%4] = reach.tiers[tier%4] || op&7 != bmRead
				off, n := bmPick(tier, b)*BlockSize, BlockSize
				switch op & 7 {
				case bmPartial:
					off += 16 * int64(arg())
					n = 1 + 32*int(arg())
				case bmRead:
					off = max(0, off+16*int64(arg())-64)
					n = 1 + 40*int(arg())
				}
				n = int(min(int64(n), MaxFileBlocks*BlockSize-off))
				if op&7 == bmRead {
					got, err := f.ReadAt(p, off, n)
					if want := s.read(off, n); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: %d bytes at %d read back wrong (err %v)", what, n, off, err)
					}
					continue
				}
				data := pinPattern(n, byte(k))
				_, err := f.WriteAt(p, data, off)
				must(what, err)
				s.write(data, off)
			case bmTruncate:
				must(what, f.Truncate(p))
				*s = bmShadow{blocks: make(map[int64][]byte)}
			case bmRemove:
				must(what, fs.Remove(p, names[j]))
				create(j)
			case bmClean:
				before := liveSecondLevel(t, p, fs)
				if _, err := fs.Clean(p, fs.FreeSegments()+1+int(arg()%4)); err != nil && !errors.Is(err, ErrNoSpace) {
					t.Fatalf("%s: %v", what, err)
				}
				for key, now := range liveSecondLevel(t, p, fs) {
					if was, ok := before[key]; ok && was.addr != now.addr && bytes.Equal(was.b, now.b) {
						reach.l2Moved++
					}
				}
				check(what)
			case bmSync:
				must(what, fs.Sync(p))
			case bmCrash:
				must(what, fs.Sync(p))
				dev := fs.dev
				fs.Crash()
				var err error
				fs, err = Mount(p, e, dev)
				must(what, err)
				cleaned = fs.Stats().SegmentsCleaned
				for i := range files {
					files[i], err = fs.Open(p, names[i])
					must(what, err)
					verify(what, i)
				}
				check(what)
			}
			// Mount cannot roll forward across a segment the cleaner freed and
			// the log reused after the last checkpoint (ROADMAP, LFS hole (1)),
			// so an operation that cleaned is followed by one.
			if fs.Stats().SegmentsCleaned != cleaned {
				must(what+": checkpoint", fs.Checkpoint(p))
				cleaned = fs.Stats().SegmentsCleaned
			}
		}
		verify("at the end", 0)
		verify("at the end", 1)
		check("at the end")
	})
	return reach
}

// l2Copy is a second-level block: where it is and what it holds.
type l2Copy struct {
	addr int64
	b    []byte
}

// liveSecondLevel returns every live double-indirect second-level block, by
// inode number and slot in its top block, from the segment summaries.
func liveSecondLevel(t *testing.T, p *sim.Proc, fs *FS) map[[2]uint32]l2Copy {
	t.Helper()
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	out := make(map[[2]uint32]l2Copy)
	for idx := 0; idx < int(fs.sb.NSegs); idx++ {
		seg := fs.segAddr(idx)
		var sum summary
		switch {
		case seg == fs.curSeg:
			sum.Entries = fs.segEntries
		case fs.free.Has(idx):
			continue
		default:
			raw, err := fs.readBlock(p, seg)
			if err != nil {
				t.Fatal(err)
			}
			if sum.unmarshal(raw) != nil {
				continue
			}
		}
		for i, e := range sum.Entries {
			addr := seg + 1 + int64(i)
			if e.Kind != kindDIndL2 {
				continue
			}
			live, err := fs.blockLive(p, e, addr)
			if err != nil {
				t.Fatal(err)
			}
			if !live {
				continue
			}
			b, err := fs.readBlock(p, addr)
			if err != nil {
				t.Fatal(err)
			}
			out[[2]uint32{e.Arg1, e.Arg2}] = l2Copy{addr, b}
		}
	}
	return out
}

// blockMapSeeds is the seed corpus.
func blockMapSeeds() [][]byte {
	var s []byte
	op := func(code byte, file int, args ...byte) {
		s = append(append(s, code|byte(file)<<3), args...)
	}
	var seeds [][]byte
	take := func() {
		seeds = append(seeds, s)
		s = nil
	}

	// Every tier, whole and partial, read back, then through a crash.
	for tier := byte(0); tier < 4; tier++ {
		op(bmWrite, 0, tier, 5)
		op(bmPartial, 0, tier, 9, 200, 150) // across a block boundary
		op(bmRead, 0, tier, 9, 3, 250)
		op(bmWrite, 1, tier, 200)
	}
	op(bmSync, 0)
	op(bmPartial, 1, 2, 200, 7, 3) // a partial write of a block on the device
	op(bmCrash, 0)
	op(bmTruncate, 1)
	op(bmWrite, 1, 3, 1)
	op(bmRemove, 0)
	op(bmRead, 0, 2, 5, 0, 100)
	op(bmCrash, 1)
	take()

	// A second-level block is rewritten after the data block it points at
	// appends, so it lands in a segment of its own only when that data block
	// takes a segment's last slot: /b fills all but one slot of a fresh
	// segment, /a's write takes the last, and its second-level and top blocks
	// open the next segment, which /b then fills with blocks it overwrites.
	// The cleaner picks that segment and moves the two pointer blocks as they
	// are.  The fill is tried at three lengths, so a change in how many blocks
	// a write appends still leaves one that splits, each under a second-level
	// block of its own: a data block moved from an earlier victim would
	// rewrite a shared one first.
	for fill := byte(12); fill < 15; fill++ {
		op(bmSync, 0)
		for k := byte(0); k < fill; k++ {
			op(bmWrite, 1, 1, k)
		}
		op(bmWrite, 0, 2, 4*5+fill-11)
		for k := byte(0); k < 13; k++ {
			op(bmWrite, 1, 1, 20+k)
		}
		op(bmSync, 0)
		for k := byte(0); k < 13; k++ {
			op(bmWrite, 1, 1, 20+k)
		}
		op(bmSync, 0)
		op(bmClean, 0, 3)
	}
	op(bmRead, 0, 2, 21, 0, 200)
	op(bmCrash, 0)
	take()

	// Truncate and remove while pointer blocks are staged, then clean.
	op(bmWrite, 0, 1, 3)
	op(bmWrite, 0, 2, 7)
	op(bmTruncate, 0)
	op(bmWrite, 0, 2, 8)
	op(bmWrite, 1, 3, 2)
	op(bmSync, 0)
	op(bmRemove, 1)
	op(bmClean, 0, 1)
	op(bmWrite, 1, 1, 255)
	op(bmCrash, 0)
	take()
	return seeds
}
