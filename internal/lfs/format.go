// Package lfs implements the Log-Structured File System that RAID-II runs:
// a port of the ideas in Rosenblum & Ousterhout's Sprite LFS, adapted the
// way the paper's §3 describes.  All file data and metadata are written to
// a sequential append-only log divided into segments; small writes are
// buffered in memory and written out as whole segments, which turns the
// RAID Level 5 small-write penalty into efficient full-stripe writes.
// Checkpoints make crash recovery a matter of rolling forward from the last
// checkpoint rather than scanning the whole volume.
//
// The implementation is complete and functional — inodes, an inode map,
// directories, indirect blocks, a segment usage table, dual checkpoint
// regions, roll-forward recovery and a cost-benefit segment cleaner (the
// one piece the 1994 prototype had not finished; here it is implemented) —
// and it runs against any block device, normally the raid.Array, charging
// simulated time through the device's own model.
package lfs

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
)

// le is the byte order of everything the file system stores.
var le = binary.LittleEndian

// BlockSize is the file system block size in bytes.
const BlockSize = 4096

// NDirect is the number of direct block pointers per inode.
const NDirect = 12

// PtrsPerBlock is the number of block addresses an indirect block holds.
const PtrsPerBlock = BlockSize / 8

// MaxNameLen bounds directory entry names.
const MaxNameLen = 255

// RootInum is the inode number of the root directory.
const RootInum = 1

// Mode distinguishes files from directories.
type Mode uint32

const (
	// ModeFile is a regular file.
	ModeFile Mode = 1
	// ModeDir is a directory.
	ModeDir Mode = 2
)

// Block kinds recorded in segment summaries, used by roll-forward recovery
// and by the cleaner's liveness checks.
const (
	kindData     = 1 // file data block; arg1=inum, arg2=file block index
	kindInode    = 2 // inode block; arg1=inum
	kindImap     = 3 // inode-map chunk; arg1=chunk index
	kindSegUsage = 4 // segment-usage chunk; arg1=chunk index
	kindIndirect = 5 // single indirect block; arg1=inum
	kindDIndTop  = 6 // double-indirect top block; arg1=inum
	kindDIndL2   = 7 // double-indirect second-level block; arg1=inum, arg2=slot
)

const (
	superMagic   = 0x4C465332 // "LFS2"
	cpMagic      = 0x43504F49
	summaryMagic = 0x5347534D
)

var (
	// ErrNotExist is returned when a path component is missing.
	ErrNotExist = errors.New("lfs: file does not exist")
	// ErrExist is returned when creating an existing name.
	ErrExist = errors.New("lfs: file exists")
	// ErrNotDir is returned when a path component is not a directory.
	ErrNotDir = errors.New("lfs: not a directory")
	// ErrIsDir is returned for file operations on a directory.
	ErrIsDir = errors.New("lfs: is a directory")
	// ErrNotEmpty is returned when removing a non-empty directory.
	ErrNotEmpty = errors.New("lfs: directory not empty")
	// ErrNoSpace is returned when the log is full even after cleaning.
	ErrNoSpace = errors.New("lfs: no free segments")
	// ErrCorrupt is returned when on-disk structures fail validation.
	ErrCorrupt = errors.New("lfs: corrupt file system")
	// ErrNameTooLong is returned for names over MaxNameLen.
	ErrNameTooLong = errors.New("lfs: name too long")
	// ErrInvalid is returned for a rename that would move a directory into
	// its own subtree.
	ErrInvalid = errors.New("lfs: invalid argument")
)

// superblock is the fixed root of the file system, stored in block 0.
type superblock struct {
	Magic      uint32
	BlockSize  uint32
	SegBlocks  uint32 // blocks per segment, including the summary blocks
	NSegs      uint32
	SegStart   int64 // first block of the segment area
	CPAddr     [2]int64
	CPBlocks   uint32
	MaxInodes  uint32
	DeviceBlks int64
}

func (sb *superblock) marshal() []byte {
	buf := make([]byte, BlockSize)
	le.PutUint32(buf[0:], sb.Magic)
	le.PutUint32(buf[4:], sb.BlockSize)
	le.PutUint32(buf[8:], sb.SegBlocks)
	le.PutUint32(buf[12:], sb.NSegs)
	le.PutUint64(buf[16:], uint64(sb.SegStart))
	le.PutUint64(buf[24:], uint64(sb.CPAddr[0]))
	le.PutUint64(buf[32:], uint64(sb.CPAddr[1]))
	le.PutUint32(buf[40:], sb.CPBlocks)
	le.PutUint32(buf[44:], sb.MaxInodes)
	le.PutUint64(buf[48:], uint64(sb.DeviceBlks))
	le.PutUint32(buf[56:], crc32.ChecksumIEEE(buf[:56]))
	return buf
}

func (sb *superblock) unmarshal(buf []byte) error {
	if le.Uint32(buf[56:]) != crc32.ChecksumIEEE(buf[:56]) {
		return ErrCorrupt
	}
	sb.Magic = le.Uint32(buf[0:])
	if sb.Magic != superMagic {
		return ErrCorrupt
	}
	sb.BlockSize = le.Uint32(buf[4:])
	sb.SegBlocks = le.Uint32(buf[8:])
	sb.NSegs = le.Uint32(buf[12:])
	sb.SegStart = int64(le.Uint64(buf[16:]))
	sb.CPAddr[0] = int64(le.Uint64(buf[24:]))
	sb.CPAddr[1] = int64(le.Uint64(buf[32:]))
	sb.CPBlocks = le.Uint32(buf[40:])
	sb.MaxInodes = le.Uint32(buf[44:])
	sb.DeviceBlks = int64(le.Uint64(buf[48:]))
	return nil
}

// inode is the on-disk (and in-memory) per-file metadata.
type inode struct {
	Inum  uint32
	Mode  Mode
	Nlink uint32
	Size  int64
	MTime int64 // simulated nanoseconds
	// Ptrs roots the file's pointer tree (blockmap.go): the direct blocks,
	// then the indirect and the double-indirect top block.
	Ptrs [NDirect + 2]int64
}

func (in *inode) marshal(buf []byte) {
	le.PutUint32(buf[0:], in.Inum)
	le.PutUint32(buf[4:], uint32(in.Mode))
	le.PutUint32(buf[8:], in.Nlink)
	le.PutUint64(buf[12:], uint64(in.Size))
	le.PutUint64(buf[20:], uint64(in.MTime))
	for i, a := range in.Ptrs {
		le.PutUint64(buf[28+8*i:], uint64(a))
	}
}

func (in *inode) unmarshal(buf []byte) {
	in.Inum = le.Uint32(buf[0:])
	in.Mode = Mode(le.Uint32(buf[4:]))
	in.Nlink = le.Uint32(buf[8:])
	in.Size = int64(le.Uint64(buf[12:]))
	in.MTime = int64(le.Uint64(buf[20:]))
	for i := range in.Ptrs {
		in.Ptrs[i] = int64(le.Uint64(buf[28+8*i:]))
	}
}

// summaryEntry describes one block of a segment.
type summaryEntry struct {
	Kind uint32
	Arg1 uint32 // inum or chunk index
	Arg2 uint32 // file block index or slot
}

const summaryEntryBytes = 12
const summaryHeaderBytes = 4 + 8 + 8 + 8 + 4 + 4 // magic, seq, time, next, nentries, crc (crc last)

// summaryCapacity is how many blocks a summary of k blocks can describe.
func summaryCapacity(k int) int {
	return (k*BlockSize - summaryHeaderBytes) / summaryEntryBytes
}

// summaryBlocks is how many blocks open a segment of segBlocks blocks for
// its summary: the fewest that describe all the others.  A segment of up
// to 339 blocks (1356 KB) has one.
func summaryBlocks(segBlocks int) int {
	k := 1
	for summaryCapacity(k) < segBlocks-k {
		k++
	}
	return k
}

// summary is a segment's self-description, stored in its first blocks: a
// header, one entry per block after them, and a CRC over both.  What
// follows the CRC is zero.
type summary struct {
	Seq     uint64
	Time    int64
	NextSeg int64 // block address of the segment the log continues in
	Entries []summaryEntry
}

// marshal writes the summary into buf, its segment's zeroed summary blocks.
func (s *summary) marshal(buf []byte) {
	le.PutUint32(buf[0:], summaryMagic)
	le.PutUint64(buf[4:], s.Seq)
	le.PutUint64(buf[12:], uint64(s.Time))
	le.PutUint64(buf[20:], uint64(s.NextSeg))
	le.PutUint32(buf[28:], uint32(len(s.Entries)))
	off := 32
	for _, e := range s.Entries {
		le.PutUint32(buf[off:], e.Kind)
		le.PutUint32(buf[off+4:], e.Arg1)
		le.PutUint32(buf[off+8:], e.Arg2)
		off += summaryEntryBytes
	}
	le.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
}

// unmarshal reads the summary from buf, its segment's summary blocks.  It
// rejects a summary whose CRC fails or whose bytes past the CRC are not
// zero.
func (s *summary) unmarshal(buf []byte) error {
	if le.Uint32(buf[0:]) != summaryMagic {
		return ErrCorrupt
	}
	n := int(le.Uint32(buf[28:]))
	if n < 0 || n > summaryCapacity(len(buf)/BlockSize) {
		return ErrCorrupt
	}
	off := 32 + n*summaryEntryBytes
	if le.Uint32(buf[off:]) != crc32.ChecksumIEEE(buf[:off]) {
		return ErrCorrupt
	}
	if slices.ContainsFunc(buf[off+4:], func(b byte) bool { return b != 0 }) {
		return ErrCorrupt // a byte flipped in the padding the CRC does not cover
	}
	s.Seq = le.Uint64(buf[4:])
	s.Time = int64(le.Uint64(buf[12:]))
	s.NextSeg = int64(le.Uint64(buf[20:]))
	s.Entries = make([]summaryEntry, n)
	p := 32
	for i := range s.Entries {
		s.Entries[i] = summaryEntry{
			Kind: le.Uint32(buf[p:]),
			Arg1: le.Uint32(buf[p+4:]),
			Arg2: le.Uint32(buf[p+8:]),
		}
		p += summaryEntryBytes
	}
	return nil
}

// checkpoint is the periodically written root of the volatile state: where
// the inode-map and segment-usage chunks live in the log, and where the log
// continues.
type checkpoint struct {
	Seq        uint64
	Time       int64
	NextSeg    int64  // segment the log continues in
	NextSegSeq uint64 // its expected summary sequence number
	NextInum   uint32
	ImapAddrs  []int64 // log address of each imap chunk (0 = all-empty chunk)
	UsageAddrs []int64 // log address of each segment-usage chunk
}

func (cp *checkpoint) marshal(maxBytes int) ([]byte, error) {
	need := 4 + 8 + 8 + 8 + 8 + 4 + 4 + 4 + 8*len(cp.ImapAddrs) + 8*len(cp.UsageAddrs) + 4
	if need > maxBytes {
		return nil, errors.New("lfs: checkpoint region too small")
	}
	buf := make([]byte, maxBytes)
	le.PutUint32(buf[0:], cpMagic)
	le.PutUint64(buf[4:], cp.Seq)
	le.PutUint64(buf[12:], uint64(cp.Time))
	le.PutUint64(buf[20:], uint64(cp.NextSeg))
	le.PutUint64(buf[28:], cp.NextSegSeq)
	le.PutUint32(buf[36:], cp.NextInum)
	le.PutUint32(buf[40:], uint32(len(cp.ImapAddrs)))
	le.PutUint32(buf[44:], uint32(len(cp.UsageAddrs)))
	off := 48
	for _, a := range cp.ImapAddrs {
		le.PutUint64(buf[off:], uint64(a))
		off += 8
	}
	for _, a := range cp.UsageAddrs {
		le.PutUint64(buf[off:], uint64(a))
		off += 8
	}
	le.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf, nil
}

func (cp *checkpoint) unmarshal(buf []byte) error {
	if le.Uint32(buf[0:]) != cpMagic {
		return ErrCorrupt
	}
	ni := int(le.Uint32(buf[40:]))
	nu := int(le.Uint32(buf[44:]))
	off := 48 + 8*ni + 8*nu
	if off+4 > len(buf) {
		return ErrCorrupt
	}
	if le.Uint32(buf[off:]) != crc32.ChecksumIEEE(buf[:off]) {
		return ErrCorrupt
	}
	cp.Seq = le.Uint64(buf[4:])
	cp.Time = int64(le.Uint64(buf[12:]))
	cp.NextSeg = int64(le.Uint64(buf[20:]))
	cp.NextSegSeq = le.Uint64(buf[28:])
	cp.NextInum = le.Uint32(buf[36:])
	cp.ImapAddrs = make([]int64, ni)
	cp.UsageAddrs = make([]int64, nu)
	p := 48
	for i := range cp.ImapAddrs {
		cp.ImapAddrs[i] = int64(le.Uint64(buf[p:]))
		p += 8
	}
	for i := range cp.UsageAddrs {
		cp.UsageAddrs[i] = int64(le.Uint64(buf[p:]))
		p += 8
	}
	return nil
}

// imapChunkEntries is how many inode addresses one imap chunk block holds.
const imapChunkEntries = BlockSize / 8

// usageChunkEntries is how many segment-usage records one chunk holds
// (live bytes uint32 + write seq uint64, packed at 16 bytes).
const usageChunkEntries = BlockSize / 16
