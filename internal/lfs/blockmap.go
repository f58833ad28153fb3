package lfs

import (
	"fmt"

	"raidii/internal/sim"
)

// The block map: where the pointer to each block of a file lives.
//
// A file's blocks hang from its inode in a tree of fixed shape, as in Sprite
// LFS and the FFS before it.  The inode's pointers (inode.Ptrs) name data
// blocks 0 to NDirect-1, then the indirect block, then the double-indirect
// top block.  The indirect block's PtrsPerBlock slots name the data blocks
// that follow; slot l1 of the top block names a second-level block, whose
// slot l2 names data block NDirect+PtrsPerBlock+l1*PtrsPerBlock+l2.  A block
// of the tree is named as its segment summary entry describes it — kind,
// inode number, and the file block of a data block or the top-block slot of
// a second-level block — and parentOf and childOf are the whole of the
// shape: the rest of LFS reads and changes the tree through the functions
// below.
//
// A pointer changes bottom-up (repoint).  The block that holds it is
// rewritten (rewriteMeta); unless that block was still in the open segment
// it moves, so the pointer to it changes in turn, up to the inode: a
// second-level block, then the top block, then the inode.

// The inode's pointers after the direct ones.
const (
	ptrInd  = NDirect     // the indirect block
	ptrDInd = NDirect + 1 // the double-indirect top block
)

// MaxFileBlocks is the largest file in blocks: direct + single indirect +
// double indirect.
const MaxFileBlocks = int64(NDirect) + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock

// ptrBlock reports whether blocks of kind hold pointers of a file's tree.
func ptrBlock(kind uint32) bool {
	return kind == kindIndirect || kind == kindDIndTop || kind == kindDIndL2
}

// dataBlock names block fb of the file with inode number inum.
func dataBlock(inum uint32, fb int64) (summaryEntry, error) {
	if fb < 0 || fb >= MaxFileBlocks {
		return summaryEntry{}, fmt.Errorf("lfs: file block %d out of range", fb)
	}
	return summaryEntry{Kind: kindData, Arg1: inum, Arg2: uint32(fb)}, nil
}

// parentOf returns where the pointer to block b of a file lives: slot i of
// the block up names, which is the inode itself when up.Kind is kindInode.
func parentOf(b summaryEntry) (up summaryEntry, i int64, err error) {
	up = summaryEntry{Kind: kindInode, Arg1: b.Arg1}
	n := int64(b.Arg2)
	switch {
	case b.Kind == kindIndirect:
		return up, ptrInd, nil
	case b.Kind == kindDIndTop:
		return up, ptrDInd, nil
	case b.Kind == kindDIndL2 && n < PtrsPerBlock:
		return summaryEntry{Kind: kindDIndTop, Arg1: b.Arg1}, n, nil
	case b.Kind != kindData || n >= MaxFileBlocks:
		return up, 0, fmt.Errorf("%w: summary entry %+v names no block of a file", ErrCorrupt, b)
	case n < NDirect:
		return up, n, nil
	case n < NDirect+PtrsPerBlock:
		return summaryEntry{Kind: kindIndirect, Arg1: b.Arg1}, n - NDirect, nil
	}
	n -= NDirect + PtrsPerBlock
	return summaryEntry{Kind: kindDIndL2, Arg1: b.Arg1, Arg2: uint32(n / PtrsPerBlock)}, n % PtrsPerBlock, nil
}

// childOf is parentOf turned round: the block slot i of block b names.
func childOf(b summaryEntry, i int64) summaryEntry {
	c := summaryEntry{Kind: kindData, Arg1: b.Arg1}
	switch {
	case b.Kind == kindInode && i == ptrInd:
		c.Kind = kindIndirect
	case b.Kind == kindInode && i == ptrDInd:
		c.Kind = kindDIndTop
	case b.Kind == kindInode:
		c.Arg2 = uint32(i)
	case b.Kind == kindIndirect:
		c.Arg2 = uint32(NDirect + i)
	case b.Kind == kindDIndTop:
		c.Kind, c.Arg2 = kindDIndL2, uint32(i)
	default: // a second-level block
		c.Arg2 = uint32(NDirect + PtrsPerBlock + int64(b.Arg2)*PtrsPerBlock + i)
	}
	return c
}

// ptrAt returns pointer i of pointer block blk.
func ptrAt(blk []byte, i int64) int64 {
	return int64(le.Uint64(blk[i*8:]))
}

// addrOf returns the address of block b of in's tree, 0 if it has none.
func (fs *FS) addrOf(p *sim.Proc, in *inode, b summaryEntry) (int64, error) {
	up, i, err := parentOf(b)
	if err != nil {
		return 0, err
	}
	if up.Kind == kindInode {
		return in.Ptrs[i], nil
	}
	at, err := fs.addrOf(p, in, up)
	if err != nil || at == 0 {
		return 0, err
	}
	blk, err := fs.metaView(p, at)
	if err != nil {
		return 0, err
	}
	return ptrAt(blk, i), nil
}

// repoint points the pointer to block b of in's tree at addr, bottom-up.
// Before it reads the first pointer block it makes room, which may run the
// cleaner: see rewriteMeta.
func (fs *FS) repoint(p *sim.Proc, in *inode, b summaryEntry, addr int64) error {
	for room := false; ; room = true {
		up, i, err := parentOf(b)
		if err != nil {
			return err
		}
		if up.Kind == kindInode {
			in.Ptrs[i] = addr
			fs.dirtyInode(in)
			return nil
		}
		if !room {
			fs.makeRoom(p)
		}
		at, err := fs.addrOf(p, in, up)
		if err != nil {
			return err
		}
		moved, err := fs.rewriteMeta(p, at, up.Kind, up.Arg1, up.Arg2, func(blk []byte) {
			le.PutUint64(blk[i*8:], uint64(addr))
		})
		if err != nil || moved == at {
			return err
		}
		b, addr = up, moved
	}
}

// walkTree visits every block in's tree names, as b and its address, each
// pointer block after the blocks it names.  read supplies a pointer block's
// contents; one it returns nil for is visited but not descended into.  A
// block's pointers are copied out before the walk descends, so read may
// return a view that dies at the next wait (metaView).
func walkTree(in *inode, read func(addr int64) ([]byte, error), visit func(b summaryEntry, addr int64)) error {
	return walkPtrs(summaryEntry{Kind: kindInode, Arg1: in.Inum}, in.Ptrs[:], read, visit)
}

// walkPtrs is walkTree below block b, whose pointers are ptrs.
func walkPtrs(b summaryEntry, ptrs []int64, read func(int64) ([]byte, error), visit func(summaryEntry, int64)) error {
	var sub [PtrsPerBlock]int64 // declared out here, it stays on the stack
	for i, addr := range ptrs {
		if addr == 0 {
			continue
		}
		c := childOf(b, int64(i))
		if ptrBlock(c.Kind) {
			blk, err := read(addr)
			if err != nil {
				return err
			}
			if blk != nil {
				for j := range sub {
					sub[j] = ptrAt(blk, int64(j))
				}
				if err := walkPtrs(c, sub[:], read, visit); err != nil {
					return err
				}
			}
		}
		visit(c, addr)
	}
	return nil
}
