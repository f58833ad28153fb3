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
// valid inode, every block pointer lies inside the log, no block is
// referenced twice, and every allocated inode is reachable from the root.
//
// It holds fs.mu, so it sees one state of the file system, and loads what it
// walks a level at a time, each level's reads in flight together: the
// inodes the inode map names, their indirect and double-indirect top blocks,
// the double-indirect second-level blocks, the directories' contents.  The
// walk itself is in memory.
func (fs *FS) Check(p *sim.Proc) (*CheckReport, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()

	blocks := make(map[int64][]byte) // every block the walk reads, by address
	var addrs []int64
	var load []uint32 // the inodes the map names that are not cached
	for inum := uint32(1); inum < fs.sb.MaxInodes; inum++ {
		if fs.imap[inum] == 0 {
			continue
		}
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
	for _, in := range fs.icache {
		inodes = append(inodes, in) // in any order: it only feeds addrs, which gather sorts
	}
	inodeOf := func(inum uint32) (*inode, error) { // what loadInode would return
		if err := unreadable[inum]; err != nil {
			return nil, err
		}
		if in, ok := fs.icache[inum]; ok {
			return in, nil
		}
		return nil, ErrNotExist
	}

	ptr := func(blk []byte, i int64) int64 {
		if blk == nil {
			return 0
		}
		return int64(le.Uint64(blk[i*8:]))
	}
	addrs = addrs[:0]
	for _, in := range inodes {
		addrs = append(addrs, in.Ind, in.DIndTop)
	}
	if err := fs.gather(p, addrs, blocks); err != nil {
		return nil, err
	}
	addrs = addrs[:0]
	for _, in := range inodes {
		for i, top := int64(0), blocks[in.DIndTop]; top != nil && i < PtrsPerBlock; i++ {
			addrs = append(addrs, ptr(top, i))
		}
	}
	if err := fs.gather(p, addrs, blocks); err != nil {
		return nil, err
	}
	blockAt := func(in *inode, fb int64) int64 { // getBlockAddr, from blocks
		switch {
		case fb < NDirect:
			return in.Direct[fb]
		case fb < NDirect+PtrsPerBlock:
			return ptr(blocks[in.Ind], fb-NDirect)
		case fb < MaxFileBlocks:
			fb -= NDirect + PtrsPerBlock
			return ptr(blocks[ptr(blocks[in.DIndTop], fb/PtrsPerBlock)], fb%PtrsPerBlock)
		}
		return 0
	}
	addrs = addrs[:0]
	for _, in := range inodes {
		for fb := int64(0); in.Mode == ModeDir && fb*BlockSize < in.Size; fb++ {
			addrs = append(addrs, blockAt(in, fb))
		}
	}
	if err := fs.gather(p, addrs, blocks); err != nil {
		return nil, err
	}

	r := &CheckReport{}
	seen := make(map[int64]uint32) // block addr -> owner inum
	liveBySeg := make(map[int]int64)

	claim := func(inum uint32, addr int64, what string) {
		if addr == 0 {
			return
		}
		if !fs.inLog(addr) {
			r.BadPointers = append(r.BadPointers, fmt.Sprintf("inode %d: %s at %d outside log", inum, what, addr))
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
		for fb := int64(0); fb*BlockSize < in.Size; fb++ {
			copy(data[fb*BlockSize:], blocks[blockAt(in, fb)]) // a hole stays zero
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

	for inum := uint32(1); inum < fs.sb.MaxInodes; inum++ {
		if fs.imap[inum] == 0 {
			continue
		}
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
		claim(inum, fs.imap[inum], "inode block")
		for i, a := range in.Direct {
			claim(inum, a, fmt.Sprintf("direct[%d]", i))
		}
		if in.Ind != 0 {
			claim(inum, in.Ind, "indirect")
			for i, ind := int64(0), blocks[in.Ind]; ind != nil && i < PtrsPerBlock; i++ {
				claim(inum, ptr(ind, i), fmt.Sprintf("ind[%d]", i))
			}
		}
		if in.DIndTop != 0 {
			claim(inum, in.DIndTop, "dind-top")
			for i, top := int64(0), blocks[in.DIndTop]; top != nil && i < PtrsPerBlock; i++ {
				l2 := ptr(top, i)
				if l2 == 0 {
					continue
				}
				claim(inum, l2, fmt.Sprintf("dind-l2[%d]", i))
				for j, blk := int64(0), blocks[l2]; blk != nil && j < PtrsPerBlock; j++ {
					claim(inum, ptr(blk, j), fmt.Sprintf("dind[%d][%d]", i, j))
				}
			}
		}
	}

	// The free-segment count every append consults must match the map.
	scan := 0
	for _, f := range fs.free {
		if f {
			scan++
		}
	}
	if scan != fs.nFree {
		r.BadPointers = append(r.BadPointers, fmt.Sprintf("free-segment count is %d, the free map holds %d", fs.nFree, scan))
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
