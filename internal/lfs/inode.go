package lfs

import (
	"fmt"

	"raidii/internal/sim"
)

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
	fs.idirty.Add(in.Inum)
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
	if addr != 0 {
		copy(b, old[:])
	} else {
		clear(b) // a new block: mutate writes only what it sets
	}
	mutate(b)
	fs.killBlock(addr)
	return newAddr, nil
}

// getBlockAddr returns the log address of file block fb (0 for a hole).
func (fs *FS) getBlockAddr(p *sim.Proc, in *inode, fb int64) (int64, error) {
	b, err := dataBlock(in.Inum, fb)
	if err != nil {
		return 0, err
	}
	return fs.addrOf(p, in, b)
}

// setBlockAddr points file block fb at addr, materializing pointer blocks in
// the log as needed.
func (fs *FS) setBlockAddr(p *sim.Proc, in *inode, fb int64, addr int64) error {
	b, err := dataBlock(in.Inum, fb)
	if err != nil {
		return err
	}
	return fs.repoint(p, in, b, addr)
}

// freeInodeBlocks kills every block the inode references, data and pointer
// blocks, each pointer block after the blocks it names; for Remove and
// truncation.
func (fs *FS) freeInodeBlocks(p *sim.Proc, in *inode) error {
	read := func(addr int64) ([]byte, error) { return fs.metaView(p, addr) }
	if err := walkTree(in, read, func(_ summaryEntry, addr int64) { fs.killBlock(addr) }); err != nil {
		return err
	}
	clear(in.Ptrs[:])
	in.Size = 0
	fs.dirtyInode(in)
	return nil
}

// removeInode frees an inode completely.
func (fs *FS) removeInode(p *sim.Proc, in *inode) error {
	err := fs.freeInodeBlocks(p, in)
	fs.touch(in.Inum)
	if err != nil {
		return err
	}
	fs.killBlock(fs.imap[in.Inum])
	fs.imap[in.Inum] = 0
	fs.imapDirty.Add(int(in.Inum) / imapChunkEntries)
	delete(fs.icache, in.Inum)
	fs.idirty.Remove(in.Inum)
	if in.Inum < fs.nextInum {
		fs.nextInum = in.Inum
	}
	return nil
}
