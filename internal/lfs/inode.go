package lfs

import (
	"fmt"

	"raidii/internal/sim"
)

// MaxFileBlocks is the largest file in blocks: direct + single indirect +
// double indirect.
const MaxFileBlocks = int64(NDirect) + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock

// loadInode returns the cached or on-log inode.
func (fs *FS) loadInode(p *sim.Proc, inum uint32) (*inode, error) {
	if in, ok := fs.icache[inum]; ok {
		return in, nil
	}
	if inum == 0 || inum >= fs.sb.MaxInodes || fs.imap[inum] == 0 {
		return nil, ErrNotExist
	}
	buf, err := fs.readBlock(p, fs.imap[inum])
	if err != nil {
		return nil, err
	}
	return fs.inodeFrom(inum, buf)
}

// inodeFrom decodes inode inum from buf, the block at fs.imap[inum], and
// caches it.
func (fs *FS) inodeFrom(inum uint32, buf []byte) (*inode, error) {
	in := &inode{}
	in.unmarshal(buf)
	if in.Inum != inum {
		return nil, fmt.Errorf("%w: inode %d found %d at %d", ErrCorrupt, inum, in.Inum, fs.imap[inum])
	}
	fs.icache[inum] = in
	return in, nil
}

// dirtyInode marks an inode for the next log flush.
func (fs *FS) dirtyInode(in *inode) {
	fs.icache[in.Inum] = in
	fs.idirty[in.Inum] = true
}

// allocInode assigns a new inode number.  A number is in use if the inode
// map points at it or a not-yet-flushed inode occupies it in the cache.
func (fs *FS) allocInode(mode Mode, now sim.Time) (*inode, error) {
	inUse := func(i uint32) bool {
		if fs.imap[i] != 0 {
			return true
		}
		_, cached := fs.icache[i]
		return cached
	}
	mk := func(i uint32) *inode {
		fs.nextInum = i + 1
		in := &inode{Inum: i, Mode: mode, Nlink: 1, MTime: int64(now)}
		fs.dirtyInode(in)
		return in
	}
	start := fs.nextInum
	if start <= RootInum {
		start = RootInum + 1
	}
	for i := start; i < fs.sb.MaxInodes; i++ {
		if !inUse(i) {
			return mk(i), nil
		}
	}
	for i := uint32(RootInum + 1); i < start; i++ {
		if !inUse(i) {
			return mk(i), nil
		}
	}
	return nil, ErrNoSpace
}

// rewriteMeta updates a metadata block (indirect block or similar): if it
// is still in the current segment it is patched in place; otherwise a copy
// is appended to the log, patched there, and the old block dies.  It returns
// the block's (possibly new) address.  Its append does not run the cleaner,
// which could move this file's blocks and rewrite the block at addr after it
// was copied, and so lose the moves: a caller outside the cleaner makes room
// before it reads addr.
func (fs *FS) rewriteMeta(p *sim.Proc, addr int64, kind, a1, a2 uint32, mutate func([]byte)) (int64, error) {
	if b := fs.currentSlot(addr); b != nil {
		mutate(b)
		return addr, nil
	}
	// The old block is copied out, not viewed: the append may wait for an
	// image, and a view of a sealed image dies when its write completes.
	var old [BlockSize]byte
	if addr != 0 {
		view, err := fs.metaView(p, addr)
		if err != nil {
			return 0, err
		}
		copy(old[:], view)
	}
	newAddr, b, err := fs.takeSlot(p, kind, a1, a2)
	if err != nil {
		return 0, err
	}
	if addr != 0 { // else a new block: the fresh slot is already zero
		copy(b, old[:])
	}
	mutate(b)
	fs.killBlock(addr)
	return newAddr, nil
}

// getBlockAddr returns the log address of file block fb (0 for a hole).
func (fs *FS) getBlockAddr(p *sim.Proc, in *inode, fb int64) (int64, error) {
	if fb < 0 || fb >= MaxFileBlocks {
		return 0, fmt.Errorf("lfs: file block %d out of range", fb)
	}
	if fb < NDirect {
		return in.Direct[fb], nil
	}
	fb -= NDirect
	if fb < PtrsPerBlock {
		if in.Ind == 0 {
			return 0, nil
		}
		buf, err := fs.metaView(p, in.Ind)
		if err != nil {
			return 0, err
		}
		return int64(le.Uint64(buf[fb*8:])), nil
	}
	fb -= PtrsPerBlock
	l1, l2 := fb/PtrsPerBlock, fb%PtrsPerBlock
	if in.DIndTop == 0 {
		return 0, nil
	}
	top, err := fs.metaView(p, in.DIndTop)
	if err != nil {
		return 0, err
	}
	l2addr := int64(le.Uint64(top[l1*8:]))
	if l2addr == 0 {
		return 0, nil
	}
	buf, err := fs.metaView(p, l2addr)
	if err != nil {
		return 0, err
	}
	return int64(le.Uint64(buf[l2*8:])), nil
}

// setBlockAddr points file block fb at addr, materializing indirect blocks
// in the log as needed.
func (fs *FS) setBlockAddr(p *sim.Proc, in *inode, fb int64, addr int64) error {
	if fb < 0 || fb >= MaxFileBlocks {
		return fmt.Errorf("lfs: file block %d out of range", fb)
	}
	if fb < NDirect {
		in.Direct[fb] = addr
		fs.dirtyInode(in)
		return nil
	}
	fs.makeRoom(p) // before the pointer blocks are read: see rewriteMeta
	fb -= NDirect
	if fb < PtrsPerBlock {
		na, err := fs.rewriteMeta(p, in.Ind, kindIndirect, in.Inum, 0, func(b []byte) {
			le.PutUint64(b[fb*8:], uint64(addr))
		})
		if err != nil {
			return err
		}
		if na != in.Ind {
			in.Ind = na
			fs.dirtyInode(in)
		}
		return nil
	}
	fb -= PtrsPerBlock
	l1, l2 := fb/PtrsPerBlock, fb%PtrsPerBlock

	// Level-2 block first.
	var l2addr int64
	if in.DIndTop != 0 {
		top, err := fs.metaView(p, in.DIndTop)
		if err != nil {
			return err
		}
		l2addr = int64(le.Uint64(top[l1*8:]))
	}
	newL2, err := fs.rewriteMeta(p, l2addr, kindDIndL2, in.Inum, uint32(l1), func(b []byte) {
		le.PutUint64(b[l2*8:], uint64(addr))
	})
	if err != nil {
		return err
	}
	if newL2 != l2addr {
		newTop, err := fs.rewriteMeta(p, in.DIndTop, kindDIndTop, in.Inum, 0, func(b []byte) {
			le.PutUint64(b[l1*8:], uint64(newL2))
		})
		if err != nil {
			return err
		}
		if newTop != in.DIndTop {
			in.DIndTop = newTop
			fs.dirtyInode(in)
		}
	}
	return nil
}

// freeInodeBlocks kills every block the inode references (data and
// indirect), for Remove and truncation.
func (fs *FS) freeInodeBlocks(p *sim.Proc, in *inode) error {
	for i := range in.Direct {
		fs.killBlock(in.Direct[i])
		in.Direct[i] = 0
	}
	if in.Ind != 0 {
		buf, err := fs.readBlock(p, in.Ind)
		if err != nil {
			return err
		}
		for i := 0; i < PtrsPerBlock; i++ {
			fs.killBlock(int64(le.Uint64(buf[i*8:])))
		}
		fs.killBlock(in.Ind)
		in.Ind = 0
	}
	if in.DIndTop != 0 {
		top, err := fs.readBlock(p, in.DIndTop)
		if err != nil {
			return err
		}
		for i := 0; i < PtrsPerBlock; i++ {
			l2 := int64(le.Uint64(top[i*8:]))
			if l2 == 0 {
				continue
			}
			buf, err := fs.readBlock(p, l2)
			if err != nil {
				return err
			}
			for j := 0; j < PtrsPerBlock; j++ {
				fs.killBlock(int64(le.Uint64(buf[j*8:])))
			}
			fs.killBlock(l2)
		}
		fs.killBlock(in.DIndTop)
		in.DIndTop = 0
	}
	in.Size = 0
	fs.dirtyInode(in)
	return nil
}

// removeInode frees an inode completely.
func (fs *FS) removeInode(p *sim.Proc, in *inode) error {
	if err := fs.freeInodeBlocks(p, in); err != nil {
		return err
	}
	fs.killBlock(fs.imap[in.Inum])
	fs.imap[in.Inum] = 0
	fs.imapDirty[int(in.Inum)/imapChunkEntries] = true
	delete(fs.icache, in.Inum)
	delete(fs.idirty, in.Inum)
	if in.Inum < fs.nextInum {
		fs.nextInum = in.Inum
	}
	return nil
}
