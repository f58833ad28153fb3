package lfs

import (
	"bytes"
	"fmt"
	"slices"

	"raidii/internal/sim"
)

// CheckReport summarizes a consistency check.  Because LFS recovery state
// hangs off the checkpoint and inode map, checking is proportional to live
// metadata rather than to volume size — the paper: "For a 1 gigabyte file
// system, it takes a few seconds to perform an LFS file system check,
// compared with approximately 20 minutes ... for a typical UNIX file
// system of comparable size."
type CheckReport struct {
	Inodes         int
	Files          int
	Dirs           int
	LiveBlocks     int64
	Orphans        []uint32 // allocated inodes unreachable from the root
	BadPointers    []string
	UsageDriftSegs int // segments whose usage accounting drifted
}

// OK reports whether the check found no structural problems.
func (r *CheckReport) OK() bool {
	return len(r.Orphans) == 0 && len(r.BadPointers) == 0
}

// Check verifies file system invariants: every inode-map entry points at a
// valid inode, every block pointer lies inside the log and past its
// segment's summary blocks, no block is
// referenced twice, and every allocated inode is reachable from the root.
//
// It holds fs.mu, so it sees one state of the file system, and loads what it
// walks a level at a time, each level's reads in flight together: the
// inodes the inode map names, each level of the pointer trees (the indirect
// and double-indirect top blocks, then the second-level blocks), the
// directories' contents.  The walk itself is in memory.  It counts and
// claims every inode: those the map names and those created since the last
// flush, which only the cache holds.
func (fs *FS) Check(p *sim.Proc) (*CheckReport, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()

	blocks := make(map[int64][]byte) // every block the walk reads, by address
	var addrs []int64
	var load []uint32   // the inodes the map names that are not cached
	var census []uint32 // every inode, the map's and the new ones not flushed yet
	for inum := uint32(1); inum < fs.sb.MaxInodes; inum++ {
		if fs.imap[inum] == 0 {
			continue
		}
		census = append(census, inum)
		if _, cached := fs.icache[inum]; !cached {
			load = append(load, inum)
			addrs = append(addrs, fs.imap[inum])
		}
	}
	if err := fs.gather(p, addrs, blocks); err != nil {
		return nil, err
	}
	unreadable := make(map[uint32]error)
	for _, inum := range load {
		var err error
		if buf := blocks[fs.imap[inum]]; buf == nil {
			err = fmt.Errorf("%w: inode %d at %d outside log", ErrCorrupt, inum, fs.imap[inum])
		} else {
			_, err = fs.inodeFrom(inum, buf)
		}
		if err != nil {
			unreadable[inum] = err
		}
	}
	inodes := make([]*inode, 0, len(fs.icache)) // now every inode: the map's and the unflushed new ones
	for inum, in := range fs.icache {
		inodes = append(inodes, in) // in any order: it only feeds addrs, which gather sorts
		if fs.imap[inum] == 0 {
			census = append(census, inum)
		}
	}
	slices.Sort(census)
	inodeOf := func(inum uint32) (*inode, error) { // what loadInode would return
		if err := unreadable[inum]; err != nil {
			return nil, err
		}
		if in, ok := fs.icache[inum]; ok {
			return in, nil
		}
		return nil, ErrNotExist
	}

	// The pointer blocks, a level of the trees at a time: each pass reads the
	// blocks that the blocks the pass before read point at.
	have := func(addr int64) ([]byte, error) { return blocks[addr], nil } // nil: not read
	for {
		addrs = addrs[:0]
		for _, in := range inodes {
			if err := walkTree(in, have, func(b summaryEntry, addr int64) {
				if ptrBlock(b.Kind) && blocks[addr] == nil && fs.inLog(addr) {
					addrs = append(addrs, addr)
				}
			}); err != nil {
				return nil, err
			}
		}
		if len(addrs) == 0 {
			break
		}
		if err := fs.gather(p, addrs, blocks); err != nil {
			return nil, err
		}
	}
	// dirBlocks visits the data blocks of directory in, each with its offset.
	dirBlocks := func(in *inode, visit func(off, addr int64)) error {
		return walkTree(in, have, func(b summaryEntry, addr int64) {
			if off := int64(b.Arg2) * BlockSize; b.Kind == kindData && off < in.Size {
				visit(off, addr)
			}
		})
	}
	addrs = addrs[:0]
	for _, in := range inodes {
		if in.Mode != ModeDir {
			continue
		}
		if err := dirBlocks(in, func(_, addr int64) { addrs = append(addrs, addr) }); err != nil {
			return nil, err
		}
	}
	if err := fs.gather(p, addrs, blocks); err != nil {
		return nil, err
	}

	r := &CheckReport{}
	seen := make(map[int64]uint32) // block addr -> owner inum
	liveBySeg := make(map[int]int64)

	claim := func(inum uint32, b summaryEntry, addr int64) {
		if addr == 0 {
			return
		}
		if !fs.inLog(addr) {
			r.BadPointers = append(r.BadPointers, fmt.Sprintf("inode %d: block %+v at %d outside log", inum, b, addr))
			return
		}
		if (addr-fs.sb.SegStart)%int64(fs.sb.SegBlocks) < int64(fs.sumBlks) {
			r.BadPointers = append(r.BadPointers, fmt.Sprintf("inode %d: block %+v at %d is a segment summary block", inum, b, addr))
			return
		}
		if owner, dup := seen[addr]; dup {
			r.BadPointers = append(r.BadPointers, fmt.Sprintf("block %d claimed by inodes %d and %d", addr, owner, inum))
			return
		}
		seen[addr] = inum
		liveBySeg[fs.segOf(addr)] += BlockSize
		r.LiveBlocks++
	}

	reachable := make(map[uint32]bool)
	var walkDir func(inum uint32) error
	walkDir = func(inum uint32) error {
		if reachable[inum] {
			return nil
		}
		reachable[inum] = true
		in, err := inodeOf(inum)
		if err != nil {
			return err
		}
		if in.Mode != ModeDir {
			return nil
		}
		data := make([]byte, in.Size)
		if err := dirBlocks(in, func(off, addr int64) { copy(data[off:], blocks[addr]) }); err != nil { // a hole stays zero
			return err
		}
		for _, e := range parseDir(data) {
			if err := walkDir(e.Inum); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walkDir(RootInum); err != nil {
		return nil, err
	}

	for _, inum := range census {
		r.Inodes++
		in, err := inodeOf(inum)
		if err != nil {
			r.BadPointers = append(r.BadPointers, fmt.Sprintf("inode %d unreadable: %v", inum, err))
			continue
		}
		if in.Mode == ModeDir {
			r.Dirs++
		} else {
			r.Files++
		}
		if !reachable[inum] {
			r.Orphans = append(r.Orphans, inum)
		}
		claim(inum, summaryEntry{Kind: kindInode, Arg1: inum}, fs.imap[inum])
		if err := walkTree(in, have, func(b summaryEntry, addr int64) { claim(inum, b, addr) }); err != nil {
			return nil, err
		}
	}

	// Usage drift (informational): compare computed live bytes per segment
	// against the usage table, ignoring metadata chunks it also counts.
	for idx, live := range liveBySeg {
		diff := int64(fs.usageLive[idx]) - live
		if diff < 0 {
			diff = -diff
		}
		if diff > 8*BlockSize {
			r.UsageDriftSegs++
		}
	}
	return r, nil
}

// inLog reports whether block addr lies in the segment area.
func (fs *FS) inLog(addr int64) bool {
	seg := fs.segOf(addr)
	return seg >= 0 && seg < int(fs.sb.NSegs)
}

// gather adds the blocks at addrs (in any order, 0 and addresses outside the
// log skipped) to blocks: one staged or in the metadata cache is taken from
// there, the others are read together (fetch).
func (fs *FS) gather(p *sim.Proc, addrs []int64, blocks map[int64][]byte) error {
	slices.Sort(addrs)
	var need []int64
	for i, a := range addrs {
		if _, have := blocks[a]; have || !fs.inLog(a) || i > 0 && a == addrs[i-1] {
			continue
		}
		if b := fs.stagedBlock(a); b != nil {
			blocks[a] = bytes.Clone(b) // a sealed image is recycled once its write lands
		} else if e, ok := fs.metaCache[a]; ok {
			blocks[a] = e.b
		} else {
			need = append(need, a)
		}
	}
	buf := make([]byte, len(need)*BlockSize)
	if err := fs.fetch(p, need, buf); err != nil {
		return err
	}
	for i, a := range need {
		blocks[a] = slot(buf, int64(i))
	}
	return nil
}
