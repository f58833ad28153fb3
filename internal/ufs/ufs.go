// Package ufs implements a deliberately traditional update-in-place file
// system in the style of the BSD FFS — the baseline the paper contrasts
// LFS against.  Files live in fixed blocks that are overwritten in place,
// so every small random write hits the RAID Level 5 read-modify-write
// penalty, and a consistency check (fsck) must traverse the entire inode
// table and directory structure: "a UNIX file system consistency checker
// traverses the entire directory structure in search of lost data ...
// approximately 20 minutes to check the consistency of a typical UNIX
// file system" of a gigabyte.
package ufs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"

	"raidii/internal/bytepath"
	"raidii/internal/sim"
)

// BlockSize is the file system block size.
const BlockSize = 4096

// NDirect is the number of direct block pointers per inode.
const NDirect = 12

// PtrsPerBlock is the pointer capacity of an indirect block.
const PtrsPerBlock = BlockSize / 8

const ufsMagic = 0x55465331

// Device is the block store (same contract as lfs.Device).  Errors are
// array-level data loss; they propagate to the caller rather than serving
// corrupt bytes.
type Device = bytepath.Device

var (
	// ErrNotExist mirrors lfs.ErrNotExist.
	ErrNotExist = errors.New("ufs: file does not exist")
	// ErrExist mirrors lfs.ErrExist.
	ErrExist = errors.New("ufs: file exists")
	// ErrNoSpace is returned when the volume is full.
	ErrNoSpace = errors.New("ufs: no space")
	// ErrCorrupt is returned for invalid on-disk state.
	ErrCorrupt = errors.New("ufs: corrupt file system")
)

type inode struct {
	Inum   uint32
	Used   uint32
	Size   int64
	Direct [NDirect]int64
	Ind    int64
}

const inodeBytes = 4 + 4 + 8 + NDirect*8 + 8 // 120
const inodesPerBlock = BlockSize / 128       // padded to 128 bytes each

// FS is a mounted traditional file system.  It has a single flat root
// directory (enough for the comparison benchmarks).
type FS struct {
	eng *sim.Engine
	dev Device

	blockSectors int
	nBlocks      int64
	nInodes      int

	inodeStart  int64 // block index
	inodeBlocks int64
	bitmapStart int64
	bitmapBlks  int64
	dataStart   int64

	mu *sim.Server

	stats Stats
}

// Stats counts activity.
type Stats struct {
	Reads, Writes uint64
	MetaWrites    uint64
}

// Format initializes a file system with room for nInodes files.
func Format(p *sim.Proc, e *sim.Engine, dev Device, nInodes int) (*FS, error) {
	fs := &FS{eng: e, dev: dev}
	fs.blockSectors = BlockSize / dev.SectorSize()
	fs.nBlocks = dev.Sectors() / int64(fs.blockSectors)
	fs.nInodes = nInodes
	fs.inodeStart = 1
	fs.inodeBlocks = int64((nInodes + inodesPerBlock - 1) / inodesPerBlock)
	fs.bitmapStart = fs.inodeStart + fs.inodeBlocks
	fs.bitmapBlks = (fs.nBlocks + BlockSize*8 - 1) / (BlockSize * 8)
	fs.dataStart = fs.bitmapStart + fs.bitmapBlks
	if fs.dataStart+16 > fs.nBlocks {
		return nil, errors.New("ufs: device too small")
	}
	fs.mu = sim.NewServer(e, "ufs:mu", 1)

	// Superblock.
	sb := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint32(sb[0:], ufsMagic)
	le.PutUint32(sb[4:], uint32(nInodes))
	le.PutUint64(sb[8:], uint64(fs.nBlocks))
	le.PutUint32(sb[16:], crc32.ChecksumIEEE(sb[:16]))
	if err := fs.writeBlock(p, 0, sb); err != nil {
		return nil, fmt.Errorf("ufs: format superblock: %w", err)
	}

	// Zero the inode table and bitmap, marking metadata blocks used.
	zero := make([]byte, BlockSize)
	for b := fs.inodeStart; b < fs.dataStart; b++ {
		if err := fs.writeBlock(p, b, zero); err != nil {
			return nil, fmt.Errorf("ufs: format metadata: %w", err)
		}
	}
	for b := int64(0); b < fs.dataStart; b++ {
		if err := fs.setBitmap(p, b, true); err != nil {
			return nil, fmt.Errorf("ufs: format bitmap: %w", err)
		}
	}
	return fs, nil
}

// Mount loads an existing file system.
func Mount(p *sim.Proc, e *sim.Engine, dev Device) (*FS, error) {
	fs := &FS{eng: e, dev: dev}
	fs.blockSectors = BlockSize / dev.SectorSize()
	raw, err := dev.Read(p, 0, fs.blockSectors)
	if err != nil {
		return nil, fmt.Errorf("ufs: mount superblock: %w", err)
	}
	le := binary.LittleEndian
	if le.Uint32(raw[16:]) != crc32.ChecksumIEEE(raw[:16]) || le.Uint32(raw[0:]) != ufsMagic {
		return nil, ErrCorrupt
	}
	fs.nInodes = int(le.Uint32(raw[4:]))
	fs.nBlocks = int64(le.Uint64(raw[8:]))
	fs.inodeStart = 1
	fs.inodeBlocks = int64((fs.nInodes + inodesPerBlock - 1) / inodesPerBlock)
	fs.bitmapStart = fs.inodeStart + fs.inodeBlocks
	fs.bitmapBlks = (fs.nBlocks + BlockSize*8 - 1) / (BlockSize * 8)
	fs.dataStart = fs.bitmapStart + fs.bitmapBlks
	fs.mu = sim.NewServer(e, "ufs:mu", 1)
	return fs, nil
}

// Stats returns the counters.
func (fs *FS) Stats() Stats { return fs.stats }

func (fs *FS) readBlock(p *sim.Proc, blk int64) ([]byte, error) {
	return fs.dev.Read(p, blk*int64(fs.blockSectors), fs.blockSectors)
}

func (fs *FS) writeBlock(p *sim.Proc, blk int64, data []byte) error {
	return fs.dev.Write(p, blk*int64(fs.blockSectors), data)
}

// setBitmap flips one allocation bit, synchronously (read-modify-write of
// the bitmap block: the in-place metadata update discipline that makes
// traditional file systems safe but slow).
func (fs *FS) setBitmap(p *sim.Proc, blk int64, used bool) error {
	bb := fs.bitmapStart + blk/(BlockSize*8)
	bit := blk % (BlockSize * 8)
	raw, err := fs.readBlock(p, bb)
	if err != nil {
		return err
	}
	if used {
		raw[bit/8] |= 1 << (bit % 8)
	} else {
		raw[bit/8] &^= 1 << (bit % 8)
	}
	if err := fs.writeBlock(p, bb, raw); err != nil {
		return err
	}
	fs.stats.MetaWrites++
	return nil
}

func (fs *FS) bitmapGet(raw []byte, bit int64) bool {
	return raw[bit/8]&(1<<(bit%8)) != 0
}

// allocBlock finds and claims a free data block.
func (fs *FS) allocBlock(p *sim.Proc) (int64, error) {
	for bb := int64(0); bb < fs.bitmapBlks; bb++ {
		raw, err := fs.readBlock(p, fs.bitmapStart+bb)
		if err != nil {
			return 0, err
		}
		// A word at a time: bit i is bit i%8 of byte i/8, so in a
		// little-endian word the lowest clear bit is the first free block.
		for w := 0; w < BlockSize; w += 8 {
			free := ^binary.LittleEndian.Uint64(raw[w:])
			if free == 0 {
				continue
			}
			i := w*8 + bits.TrailingZeros64(free)
			blk := bb*BlockSize*8 + int64(i)
			if blk >= fs.nBlocks {
				return 0, ErrNoSpace
			}
			raw[i/8] |= 1 << (i % 8)
			if err := fs.writeBlock(p, fs.bitmapStart+bb, raw); err != nil {
				return 0, err
			}
			fs.stats.MetaWrites++
			return blk, nil
		}
	}
	return 0, ErrNoSpace
}

func (fs *FS) readInode(p *sim.Proc, inum int) (*inode, error) {
	if inum < 0 || inum >= fs.nInodes {
		return nil, ErrNotExist
	}
	blk := fs.inodeStart + int64(inum/inodesPerBlock)
	raw, err := fs.readBlock(p, blk)
	if err != nil {
		return nil, err
	}
	off := (inum % inodesPerBlock) * 128
	in := &inode{}
	le := binary.LittleEndian
	in.Inum = le.Uint32(raw[off:])
	in.Used = le.Uint32(raw[off+4:])
	in.Size = int64(le.Uint64(raw[off+8:]))
	for i := 0; i < NDirect; i++ {
		in.Direct[i] = int64(le.Uint64(raw[off+16+i*8:]))
	}
	in.Ind = int64(le.Uint64(raw[off+16+NDirect*8:]))
	return in, nil
}

// writeInode updates an inode in place (synchronous metadata write).
func (fs *FS) writeInode(p *sim.Proc, inum int, in *inode) error {
	blk := fs.inodeStart + int64(inum/inodesPerBlock)
	raw, err := fs.readBlock(p, blk)
	if err != nil {
		return err
	}
	off := (inum % inodesPerBlock) * 128
	le := binary.LittleEndian
	le.PutUint32(raw[off:], in.Inum)
	le.PutUint32(raw[off+4:], in.Used)
	le.PutUint64(raw[off+8:], uint64(in.Size))
	for i := 0; i < NDirect; i++ {
		le.PutUint64(raw[off+16+i*8:], uint64(in.Direct[i]))
	}
	le.PutUint64(raw[off+16+NDirect*8:], uint64(in.Ind))
	if err := fs.writeBlock(p, blk, raw); err != nil {
		return err
	}
	fs.stats.MetaWrites++
	return nil
}

// Create allocates inode inum (the flat namespace is indexed by number).
func (fs *FS) Create(p *sim.Proc, inum int) error {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	in, err := fs.readInode(p, inum)
	if err != nil {
		return err
	}
	if in.Used != 0 {
		return ErrExist
	}
	return fs.writeInode(p, inum, &inode{Inum: uint32(inum), Used: 1})
}

// blockOf returns (allocating if alloc) the disk block of file block fb.
func (fs *FS) blockOf(p *sim.Proc, inum int, in *inode, fb int64, alloc bool) (int64, error) {
	if fb < NDirect {
		if in.Direct[fb] == 0 && alloc {
			blk, err := fs.allocBlock(p)
			if err != nil {
				return 0, err
			}
			in.Direct[fb] = blk
			if err := fs.writeInode(p, inum, in); err != nil {
				return 0, err
			}
		}
		return in.Direct[fb], nil
	}
	fb -= NDirect
	if fb >= PtrsPerBlock {
		return 0, fmt.Errorf("ufs: file too large")
	}
	if in.Ind == 0 {
		if !alloc {
			return 0, nil
		}
		blk, err := fs.allocBlock(p)
		if err != nil {
			return 0, err
		}
		in.Ind = blk
		if err := fs.writeInode(p, inum, in); err != nil {
			return 0, err
		}
		if err := fs.writeBlock(p, blk, make([]byte, BlockSize)); err != nil {
			return 0, err
		}
	}
	raw, err := fs.readBlock(p, in.Ind)
	if err != nil {
		return 0, err
	}
	le := binary.LittleEndian
	addr := int64(le.Uint64(raw[fb*8:]))
	if addr == 0 && alloc {
		blk, err := fs.allocBlock(p)
		if err != nil {
			return 0, err
		}
		le.PutUint64(raw[fb*8:], uint64(blk))
		if err := fs.writeBlock(p, in.Ind, raw); err != nil {
			return 0, err
		}
		fs.stats.MetaWrites++
		addr = blk
	}
	return addr, nil
}

// WriteAt overwrites file data in place.
func (fs *FS) WriteAt(p *sim.Proc, inum int, data []byte, off int64) (int, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	in, err := fs.readInode(p, inum)
	if err != nil {
		return 0, err
	}
	if in.Used == 0 {
		return 0, ErrNotExist
	}
	written := 0
	for written < len(data) {
		fb := (off + int64(written)) / BlockSize
		bo := int((off + int64(written)) % BlockSize)
		n := BlockSize - bo
		if n > len(data)-written {
			n = len(data) - written
		}
		blk, err := fs.blockOf(p, inum, in, fb, true)
		if err != nil {
			return written, err
		}
		var buf []byte
		if bo == 0 && n == BlockSize {
			buf = data[written : written+n]
		} else {
			if buf, err = fs.readBlock(p, blk); err != nil {
				return written, err
			}
			copy(buf[bo:], data[written:written+n])
		}
		// In place: the RAID-5 small-write path.
		if err := fs.writeBlock(p, blk, buf); err != nil {
			return written, err
		}
		written += n
	}
	if off+int64(len(data)) > in.Size {
		in.Size = off + int64(len(data))
		if err := fs.writeInode(p, inum, in); err != nil {
			return written, err
		}
	}
	fs.stats.Writes++
	return written, nil
}

// ReadAt reads file data.
func (fs *FS) ReadAt(p *sim.Proc, inum int, off int64, n int) ([]byte, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	in, err := fs.readInode(p, inum)
	if err != nil {
		return nil, err
	}
	if in.Used == 0 {
		return nil, ErrNotExist
	}
	if off >= in.Size {
		return nil, nil
	}
	if int64(n) > in.Size-off {
		n = int(in.Size - off)
	}
	out := make([]byte, n)
	got := 0
	for got < n {
		fb := (off + int64(got)) / BlockSize
		bo := int((off + int64(got)) % BlockSize)
		l := BlockSize - bo
		if l > n-got {
			l = n - got
		}
		blk, err := fs.blockOf(p, inum, in, fb, false)
		if err != nil {
			return nil, err
		}
		if blk != 0 {
			raw, err := fs.readBlock(p, blk)
			if err != nil {
				return nil, err
			}
			copy(out[got:got+l], raw[bo:])
		}
		got += l
	}
	fs.stats.Reads++
	return out, nil
}

// FsckReport is the result of a full consistency check.
type FsckReport struct {
	InodesScanned  int
	BlocksScanned  int64
	UsedInodes     int
	Leaked         int64 // blocks marked used but unreferenced
	CrossReference int   // blocks claimed twice
}

// Fsck performs the traditional full-volume consistency check: it reads
// the entire inode table, follows every block pointer, and cross-checks
// the allocation bitmap against the full device.  On a simulated disk
// array this takes orders of magnitude longer than an LFS checkpoint
// check, which is the paper's point.
func (fs *FS) Fsck(p *sim.Proc) (*FsckReport, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	r := &FsckReport{}
	referenced := make(map[int64]int)
	for b := int64(0); b < fs.dataStart; b++ {
		referenced[b]++
	}
	// Pass 1: every inode, every pointer.
	for inum := 0; inum < fs.nInodes; inum++ {
		in, err := fs.readInode(p, inum)
		if err != nil {
			return nil, err
		}
		r.InodesScanned++
		if in.Used == 0 {
			continue
		}
		r.UsedInodes++
		for _, a := range in.Direct {
			if a != 0 {
				referenced[a]++
			}
		}
		if in.Ind != 0 {
			referenced[in.Ind]++
			raw, err := fs.readBlock(p, in.Ind)
			if err != nil {
				return nil, err
			}
			le := binary.LittleEndian
			for i := 0; i < PtrsPerBlock; i++ {
				if a := int64(le.Uint64(raw[i*8:])); a != 0 {
					referenced[a]++
				}
			}
		}
	}
	// Pass 2: the whole bitmap against the reference counts.
	for bb := int64(0); bb < fs.bitmapBlks; bb++ {
		raw, err := fs.readBlock(p, fs.bitmapStart+bb)
		if err != nil {
			return nil, err
		}
		for i := int64(0); i < BlockSize*8; i++ {
			blk := bb*BlockSize*8 + i
			if blk >= fs.nBlocks {
				break
			}
			r.BlocksScanned++
			refs := referenced[blk]
			used := fs.bitmapGet(raw, i)
			if used && refs == 0 {
				r.Leaked++
			}
			if refs > 1 {
				r.CrossReference++
			}
		}
	}
	// Pass 3: scan all data blocks for lost fragments, the way fsck walks
	// the directory structure — this is what makes it scale with volume
	// size rather than live metadata.
	for blk := fs.dataStart; blk < fs.nBlocks; blk += 64 {
		n := int64(64)
		if blk+n > fs.nBlocks {
			n = fs.nBlocks - blk
		}
		if _, err := fs.dev.Read(p, blk*int64(fs.blockSectors), int(n)*fs.blockSectors); err != nil {
			return nil, err
		}
	}
	return r, nil
}
