package lfs

import (
	"bytes"
	"errors"
	"fmt"

	"raidii/internal/bitset"
	"raidii/internal/bytepath"
	"raidii/internal/sim"
)

// Device is the block store the log lives on — normally a raid.Array, but
// anything sector-addressable works.  Errors are array-level data loss
// (raid.ErrArrayFailed after redundancy is exhausted): the file system
// propagates them to its callers rather than serving corrupt bytes.
type Device = bytepath.Device

// Config selects file system geometry.
type Config struct {
	// SegBytes is the segment size.  RAID-II uses 960 KB segments so that
	// one segment is exactly one full stripe of a 16-disk array with 64 KB
	// striping ("The log is written to the disk array in units or segments
	// of 960 kilobytes").  A server board derives its own from its array,
	// whole stripes of it.
	SegBytes int
	// MaxInodes bounds the inode map.
	MaxInodes int
	// CleanReserve is the number of free segments below which appends
	// trigger the cleaner.
	CleanReserve int
	// Images is the size of the segment image pool: the open segment's
	// image and the sealed ones streaming to the device (0: imagePool).  A
	// board with NVRAM sets it to the segments its battery-backed region
	// holds, so that a crash keeps every image (Crash, MountTail).
	Images int
}

// DefaultConfig returns the paper's file system geometry.
func DefaultConfig() Config {
	return Config{
		SegBytes:     960 << 10,
		MaxInodes:    1 << 16,
		CleanReserve: 4,
	}
}

// Stats counts file system activity.
type Stats struct {
	SegmentsWritten uint64
	PartialSegSeals uint64
	BlocksAppended  uint64
	BlocksKilled    uint64
	Checkpoints     uint64
	SegmentsCleaned uint64
	BlocksMoved     uint64
	RollForwardSegs uint64
	ReadOps         uint64
	WriteOps        uint64
	BytesRead       uint64
	BytesWritten    uint64
	// ImageWaits counts the appends that found every segment image in use and
	// waited for a device write to finish; ImageWaitNs is the simulated time
	// they waited in total.
	ImageWaits  uint64
	ImageWaitNs uint64
}

// FS is a mounted log-structured file system.
type FS struct {
	eng *sim.Engine
	dev Device
	cfg Config
	sb  superblock

	blockSectors int
	sumBlks      int // summary blocks at the front of each segment (summaryBlocks)
	segDataBlks  int // data blocks per segment (SegBlocks - sumBlks)

	mu *sim.Server // global metadata lock

	imap      []int64
	imapAddrs []int64 // log address of each imap chunk
	imapDirty bitset.Set[int]

	usageLive  []int32
	usageSeq   []uint64
	usageAddrs []int64
	usageDirty bitset.Set[int]

	nextInum uint32
	cpSeq    uint64
	cpNext   int // which checkpoint region to write next

	// Current (in-memory) segment.  segImage is the segment exactly as it
	// will be written: its first sumBlks blocks are left for the summary, and
	// block sumBlks+i is the slot of segEntries[i].  It is taken from the
	// pool when the segment takes its first block and handed to the device
	// at seal time without being copied.  A recycled image still holds its
	// last segment's blocks below segStale: every slot taken is written
	// whole, and the seal clears what is left of them past its last slot, so
	// a partial seal's tail is zero.
	curSeg     int64 // block address of the segment's first block
	segSeq     uint64
	segEntries []summaryEntry
	segImage   []byte
	segStale   int
	// The image pool: Config.Images images, allocated as they are first needed.
	// A slot of imageSlots is held for each image in use — the one filling
	// and every sealed one until its device write ends — and images holds
	// the others, each cut to the blocks its last segment wrote.  An append
	// that needs an image when none is free waits for a slot (takeImage):
	// this is the write path's back-pressure.
	imageSlots *sim.Server
	images     bytepath.FreeList
	// runBufs recycles readRun's buffers for runs that do not land straight
	// in the result; it keeps as many as the image pool.
	runBufs bytepath.FreeList
	// plans recycles the layouts of reads (readPlan).
	plans []*readPlan

	free      bitset.Set[int]
	allocHint int

	icache map[uint32]*inode
	idirty bitset.Set[uint32]

	// gens is each file's generation (File.Generation), by inode number: the
	// value genSeq had when the file's bytes or block map last changed.
	// genSeq only grows, so no generation repeats, not even across a
	// removal and the inode number's reuse.  Absent is 0.
	gens   map[uint32]uint64
	genSeq uint64

	// The cleaner (cleaner.go).  cleaning is set while a clean holds fs.mu
	// and moves blocks, so their appends start no clean of their own;
	// cleanerOn while the cleaner process lives; victim is the segment that
	// process is reading with fs.mu given back (-1: none), which no other
	// clean picks.
	cleaning  bool
	cleanerOn bool
	victim    int

	// metaCache holds recently read metadata blocks (indirect blocks,
	// directory data) keyed by log address.  Log addresses are write-once
	// until their segment is cleaned and reused, so address-keyed caching
	// is safe as long as entries are dropped when a segment is resealed or
	// a block dies.  This plays the role of the prototype's host metadata
	// cache ("The host memory cache contains metadata...  managed with a
	// simple Least Recently Used replacement policy").
	//
	// metaOrder is the cache's addresses in insertion order, a ring of at
	// most metaCacheCap places that metaNext walks once it is full.  A dropped
	// address leaves a zero in its place until the ring comes round, so ring
	// and map never disagree: the cache is the live blocks among the last
	// metaCacheCap it was given.
	metaCache map[int64]metaEntry
	metaOrder []int64
	metaNext  int
	// stagedPtrs is the live pointer blocks (indirect, double-indirect) of
	// the segments the device does not have yet.  A seal's completed write
	// moves the ones still in it into metaCache; a block killed while staged
	// leaves the set, and so never reaches the cache as a dead address.
	stagedPtrs map[int64]struct{}

	dirScratch [2][]byte // dirBytes' buffers; guarded by mu

	// In-flight asynchronous segment writes: "full LFS segments are
	// written to disk while newer segments are being filled with data."
	// inflight holds each sealed image by segment index until its device
	// write completes (for good if it fails), so its blocks stay readable.
	// A sealed image is never modified: the device may still be reading it.
	// Once the write has completed nothing refers to the image (the device
	// kept a copy, views of staged blocks do not outlive a wait) and it is
	// recycled.
	// The group latches the first error a segment write hit: the log on
	// disk is no longer trustworthy past that point, so every later append,
	// seal, and sync reports it instead of silently losing data.
	seals    *sim.Group
	inflight map[int][]byte

	crashed bool // Crash ran: nothing this FS still does may reach the device

	stats Stats
}

// ErrCrashed is what a crashed file system returns to a process that was
// still inside it when Crash ran and now tries to write.
var ErrCrashed = errors.New("lfs: file system crashed")

// Format initializes an empty file system on dev and returns it mounted.
func Format(p *sim.Proc, e *sim.Engine, dev Device, cfg Config) (*FS, error) {
	if cfg.SegBytes == 0 {
		cfg = DefaultConfig()
	}
	if cfg.SegBytes%BlockSize != 0 || cfg.SegBytes < 4*BlockSize {
		return nil, errors.New("lfs: segment size must be a multiple of the block size and at least 4 blocks")
	}
	if dev.SectorSize() > BlockSize || BlockSize%dev.SectorSize() != 0 {
		return nil, errors.New("lfs: block size must be a multiple of the sector size")
	}
	blockSectors := BlockSize / dev.SectorSize()
	devBlks := dev.Sectors() / int64(blockSectors)
	segBlocks := cfg.SegBytes / BlockSize

	const cpBlocks = 8
	metaBlks := int64(1 + 2*cpBlocks)
	// Align the segment area to a segment-size boundary so that segments
	// land on whole stripes of the underlying array.
	segStart := ((metaBlks + int64(segBlocks) - 1) / int64(segBlocks)) * int64(segBlocks)
	nSegs := (devBlks - segStart) / int64(segBlocks)
	if nSegs < 8 {
		return nil, errors.New("lfs: device too small")
	}

	sb := superblock{
		Magic:      superMagic,
		BlockSize:  BlockSize,
		SegBlocks:  uint32(segBlocks),
		NSegs:      uint32(nSegs),
		SegStart:   segStart,
		CPAddr:     [2]int64{1, 1 + cpBlocks},
		CPBlocks:   cpBlocks,
		MaxInodes:  uint32(cfg.MaxInodes),
		DeviceBlks: devBlks,
	}
	if err := dev.Write(p, 0, sb.marshal()); err != nil {
		return nil, fmt.Errorf("lfs: format superblock: %w", err)
	}

	fs := &FS{eng: e, dev: dev, cfg: cfg, sb: sb}
	fs.initState()
	// Bootstrap: segment 0 is the first log segment.
	fs.curSeg = fs.segAddr(0)
	fs.segSeq = 1
	fs.free.Remove(0)
	fs.resetSegment()

	// Create the root directory.
	root := &inode{Inum: RootInum, Mode: ModeDir, Nlink: 2, MTime: int64(p.Now())}
	fs.icache[RootInum] = root
	fs.idirty.Add(RootInum)
	fs.nextInum = RootInum + 1
	if err := fs.writeDir(p, root, nil); err != nil {
		return nil, err
	}
	if err := fs.Checkpoint(p); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount loads an existing file system from dev with the default runtime
// settings, performing roll-forward recovery from the most recent valid
// checkpoint.
func Mount(p *sim.Proc, e *sim.Engine, dev Device) (*FS, error) {
	return MountTail(p, e, dev, DefaultConfig(), nil)
}

// MountTail is Mount with the runtime settings of cfg (CleanReserve and
// Images; the geometry is the device's), and it rolls the log forward past
// the device's end through tail, what a crash left in battery-backed
// segment images (nil: nothing).
func MountTail(p *sim.Proc, e *sim.Engine, dev Device, cfg Config, tail *Tail) (*FS, error) {
	blockSectors0 := BlockSize / dev.SectorSize()
	raw, err := dev.Read(p, 0, blockSectors0)
	if err != nil {
		return nil, fmt.Errorf("lfs: mount superblock: %w", err)
	}
	var sb superblock
	if err := sb.unmarshal(raw); err != nil {
		return nil, err
	}
	cfg.SegBytes, cfg.MaxInodes = int(sb.SegBlocks)*BlockSize, int(sb.MaxInodes)
	fs := &FS{eng: e, dev: dev, cfg: cfg, sb: sb}
	fs.initState()
	// Recovery holds the lock like any other change of state: a cleaner that
	// one of its seals starts waits for the mount to finish.
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	if err := fs.recover(p, tail); err != nil {
		return nil, err
	}
	return fs, nil
}

// initState allocates the in-memory tables.
func (fs *FS) initState() {
	fs.blockSectors = BlockSize / fs.dev.SectorSize()
	fs.sumBlks = summaryBlocks(int(fs.sb.SegBlocks))
	fs.segDataBlks = int(fs.sb.SegBlocks) - fs.sumBlks
	fs.mu = sim.NewServer(fs.eng, "lfs:mu", 1)
	fs.imap = make([]int64, fs.sb.MaxInodes)
	fs.imapAddrs = make([]int64, (int(fs.sb.MaxInodes)+imapChunkEntries-1)/imapChunkEntries)
	fs.usageLive = make([]int32, fs.sb.NSegs)
	fs.usageSeq = make([]uint64, fs.sb.NSegs)
	fs.usageAddrs = make([]int64, (int(fs.sb.NSegs)+usageChunkEntries-1)/usageChunkEntries)
	for i := range int(fs.sb.NSegs) {
		fs.free.Add(i)
	}
	fs.icache = make(map[uint32]*inode)
	fs.gens = make(map[uint32]uint64)
	fs.seals = sim.NewGroup(fs.eng)
	fs.inflight = make(map[int][]byte)
	images := fs.cfg.Images
	if images == 0 {
		images = imagePool
	}
	fs.imageSlots = sim.NewServer(fs.eng, "lfs:images", images)
	fs.images = bytepath.NewFreeList(images)
	fs.runBufs = bytepath.NewFreeList(images)
	fs.metaCache = make(map[int64]metaEntry)
	fs.stagedPtrs = make(map[int64]struct{})
	fs.victim = -1
}

// Stats returns a copy of the counters.
func (fs *FS) Stats() Stats { return fs.stats }

// SegmentBytes returns the configured segment size.
func (fs *FS) SegmentBytes() int { return int(fs.sb.SegBlocks) * BlockSize }

// FreeSegments reports the number of free segments.
func (fs *FS) FreeSegments() int { return fs.free.Len() }

// segAddr returns the block address of segment idx.
func (fs *FS) segAddr(idx int) int64 {
	return fs.sb.SegStart + int64(idx)*int64(fs.sb.SegBlocks)
}

// segOf returns the segment index containing block addr (-1 outside log).
func (fs *FS) segOf(addr int64) int {
	if addr < fs.sb.SegStart {
		return -1
	}
	return int((addr - fs.sb.SegStart) / int64(fs.sb.SegBlocks))
}

// readBlock returns the contents of block addr as the caller's own copy,
// consulting the staged (unflushed) segments first.
func (fs *FS) readBlock(p *sim.Proc, addr int64) ([]byte, error) {
	if b := fs.stagedBlock(addr); b != nil {
		return bytes.Clone(b), nil
	}
	return fs.dev.Read(p, addr*int64(fs.blockSectors), fs.blockSectors)
}

// fetch reads the blocks at addrs, none of them staged, into dst: block i of
// dst is the block at addrs[i].  Each run of ascending consecutive addresses
// is one device read and all of them are in flight at once, so a
// caller that knows the blocks it needs waits once for all of them: the
// cleaner for a victim's live blocks, Check for a level of its walk, a write
// for its partial blocks.
func (fs *FS) fetch(p *sim.Proc, addrs []int64, dst []byte) error {
	g := p.Fork()
	for i := 0; i < len(addrs); {
		j := i + 1
		for j < len(addrs) && addrs[j] == addrs[j-1]+1 {
			j++
		}
		lba, buf := addrs[i]*int64(fs.blockSectors), dst[i*BlockSize:j*BlockSize]
		if i == 0 && j == len(addrs) {
			return bytepath.ReadInto(fs.dev, p, lba, buf) // one run: no worker
		}
		g.Go("lfs-fetch", func(q *sim.Proc) error { return bytepath.ReadInto(fs.dev, q, lba, buf) })
		i = j
	}
	return g.Wait(p)
}

// metaCacheCap bounds the metadata cache (in blocks).
const metaCacheCap = 4096

// metaEntry is a cached block and its place in metaOrder.
type metaEntry struct {
	b   []byte
	pos int
}

// imagePool is the number of segment images an FS owns unless Config.Images
// says otherwise: one filling and five streaming to the array, 5.6 MB of the
// board's 32.  Sized on the 16-disk array's sequential write (parent: 15.44
// MB/s from an unbounded queue): two images deliver 10.85 MB/s, three 15.41,
// six 15.45, eight 15.46; Fig. 8's large random writes want more than four
// (13.8 MB/s at 4 MB with four, 15.1 with six), and beyond six an image only
// holds memory.
const imagePool = 1 + 5

// metaView returns metadata block addr (an indirect block, directory
// contents) for reading only, through the metadata cache that pointer walks
// hit repeatedly.  The slice is the staged block or the cache's own copy:
// the caller must not modify it, and must be done with it before it next
// waits or appends to the log.
func (fs *FS) metaView(p *sim.Proc, addr int64) ([]byte, error) {
	if b := fs.stagedBlock(addr); b != nil {
		return b, nil
	}
	if e, ok := fs.metaCache[addr]; ok {
		return e.b, nil
	}
	b, err := fs.dev.Read(p, addr*int64(fs.blockSectors), fs.blockSectors)
	if err != nil {
		return nil, err
	}
	fs.cacheMeta(addr, b)
	return b, nil
}

// cacheMeta inserts a block the cache may keep, with FIFO eviction: once the
// ring is full the new address takes the oldest place, evicting whatever
// still holds it.
func (fs *FS) cacheMeta(addr int64, b []byte) {
	if _, ok := fs.metaCache[addr]; ok {
		return
	}
	pos := len(fs.metaOrder)
	if pos < metaCacheCap {
		fs.metaOrder = append(fs.metaOrder, addr)
	} else {
		pos = fs.metaNext
		fs.metaNext = (pos + 1) % metaCacheCap
		if old := fs.metaOrder[pos]; old != 0 {
			delete(fs.metaCache, old)
		}
		fs.metaOrder[pos] = addr
	}
	fs.metaCache[addr] = metaEntry{b: b, pos: pos}
}

// dropMeta invalidates one cached address.
func (fs *FS) dropMeta(addr int64) {
	if e, ok := fs.metaCache[addr]; ok {
		fs.metaOrder[e.pos] = 0
		delete(fs.metaCache, addr)
	}
}

// resetSegment starts an empty current segment.
func (fs *FS) resetSegment() {
	fs.segEntries = fs.segEntries[:0]
	fs.segImage = nil
}

// slot returns block i of a segment image.
func slot(image []byte, i int64) []byte {
	return image[i*BlockSize : (i+1)*BlockSize : (i+1)*BlockSize]
}

// summaryOf returns the summary blocks of a segment image.
func (fs *FS) summaryOf(image []byte) []byte { return image[:fs.sumBlks*BlockSize] }

// entryAddr returns the block address entry i of the segment at seg describes.
func (fs *FS) entryAddr(seg int64, i int) int64 { return seg + int64(fs.sumBlks+i) }

// currentSlot returns the slot of addr if it is a block of the current,
// unsealed segment — the only staged blocks that may still be patched —
// and nil otherwise.
func (fs *FS) currentSlot(addr int64) []byte {
	if addr < fs.entryAddr(fs.curSeg, 0) || addr >= fs.entryAddr(fs.curSeg, len(fs.segEntries)) {
		return nil
	}
	return slot(fs.segImage, addr-fs.curSeg)
}

// stagedBlock returns block addr for reading if the device does not have it
// yet: a view into the current segment's image or into a sealed image whose
// write is in flight, nil otherwise.
func (fs *FS) stagedBlock(addr int64) []byte {
	if b := fs.currentSlot(addr); b != nil {
		return b
	}
	if image, ok := fs.inflight[fs.segOf(addr)]; ok {
		return slot(image, (addr-fs.sb.SegStart)%int64(fs.sb.SegBlocks))
	}
	return nil
}

// appendSlot reserves the next block of the current segment for a block
// described by (kind, a1, a2) and returns its (final) block address and its
// slot in the segment image, which the caller fills: the image is the only
// place the block is staged.  The slot may hold a block of the image's last
// segment, so the caller writes every byte of it.  The segment seals
// automatically when full.
func (fs *FS) appendSlot(p *sim.Proc, kind uint32, a1, a2 uint32) (int64, []byte, error) {
	fs.makeRoom(p)
	return fs.takeSlot(p, kind, a1, a2)
}

// makeRoom is the cleaner's back-pressure.  The cleaner process keeps the
// reserve; when it has fallen so far behind that the next seal would take
// the last free segment, the append cleans inline, holding fs.mu, before it
// goes on.  Failure to find cleanable segments is not fatal here; the seal
// path reports ErrNoSpace.
func (fs *FS) makeRoom(p *sim.Proc) {
	if fs.failed() == nil && !fs.cleaning && fs.FreeSegments() <= 1 {
		_ = fs.cleanSome(p, fs.cfg.CleanReserve, false) //lint:allow errdrop opportunistic clean; the seal path reports ErrNoSpace
	}
}

// takeSlot is appendSlot without the cleaner, for a caller holding a copy of
// a block the cleaner may rewrite (rewriteMeta): it makes room before it
// copies.
func (fs *FS) takeSlot(p *sim.Proc, kind uint32, a1, a2 uint32) (int64, []byte, error) {
	if err := fs.failed(); err != nil {
		return 0, nil, err
	}
	if len(fs.segEntries) >= fs.segDataBlks {
		if err := fs.sealSegment(p); err != nil {
			return 0, nil, err
		}
	}
	if fs.segImage == nil {
		image, err := fs.takeImage(p)
		if err != nil {
			return 0, nil, err
		}
		fs.segImage = image
	}
	addr := fs.entryAddr(fs.curSeg, len(fs.segEntries))
	fs.segEntries = append(fs.segEntries, summaryEntry{Kind: kind, Arg1: a1, Arg2: a2})
	if ptrBlock(kind) {
		fs.stagedPtrs[addr] = struct{}{}
	}
	seg := fs.segOf(addr)
	fs.usageLive[seg] += BlockSize
	fs.markUsageDirty(seg)
	fs.stats.BlocksAppended++
	return addr, slot(fs.segImage, addr-fs.curSeg), nil
}

// takeImage returns an image for the segment that is about to take its first
// block, with a zero summary, and sets segStale to how far its last
// segment's blocks reach.  When the pool's images are all in use it waits for
// a device write to finish — with fs.mu held, as its caller holds it: until
// there is an image nothing can be staged, by anybody.  A write that fails
// gives its place back too, and the waiter returns the loss instead of an
// image.
func (fs *FS) takeImage(p *sim.Proc) ([]byte, error) {
	if !fs.imageSlots.TryAcquire() {
		end := p.Span("lfs", "image-wait")
		start := p.Now()
		fs.imageSlots.Acquire(p)
		end()
		fs.stats.ImageWaits++
		fs.stats.ImageWaitNs += uint64(p.Now().Sub(start))
		if err := fs.failed(); err != nil {
			fs.imageSlots.Release()
			return nil, err
		}
	}
	image := fs.images.Take()
	if image == nil {
		fs.segStale = 0
		return make([]byte, fs.SegmentBytes()), nil
	}
	fs.segStale = len(image)
	image = image[:fs.SegmentBytes()]
	clear(fs.summaryOf(image))
	return image, nil
}

// restage writes the new version of a metadata block whose current version
// is at old() (0: none): over it if that is still in the current segment,
// else into a fresh slot, and the old block dies.  fill must set every byte
// it does not want to inherit: the slot holds the old version in the first
// case and zeros in the second (restage clears it).  Room is made first,
// and that may run the cleaner, which can move this very block and the
// blocks it describes; so old and fill are asked only after it, and the log
// records the state as the cleaner left it.  It returns the block's address.
func (fs *FS) restage(p *sim.Proc, kind, a1, a2 uint32, old func() int64, fill func([]byte)) (int64, error) {
	fs.makeRoom(p)
	at := old()
	if b := fs.currentSlot(at); b != nil {
		fill(b)
		return at, nil
	}
	addr, b, err := fs.takeSlot(p, kind, a1, a2)
	if err != nil {
		return 0, err
	}
	clear(b) // fill writes only what it sets
	fill(b)
	fs.killBlock(at)
	return addr, nil
}

// killBlock marks the block at addr dead for space accounting.
func (fs *FS) killBlock(addr int64) {
	if addr == 0 {
		return
	}
	seg := fs.segOf(addr)
	if seg < 0 || seg >= int(fs.sb.NSegs) {
		return
	}
	fs.usageLive[seg] -= BlockSize
	if fs.usageLive[seg] < 0 {
		fs.usageLive[seg] = 0
	}
	fs.markUsageDirty(seg)
	fs.dropMeta(addr)
	delete(fs.stagedPtrs, addr)
	fs.stats.BlocksKilled++
}

func (fs *FS) markUsageDirty(seg int) { fs.usageDirty.Add(seg / usageChunkEntries) }

// pickFreeSegment chooses the next segment for the log, round-robin from
// the allocation hint, excluding the current segment.
func (fs *FS) pickFreeSegment() (int, error) {
	for _, from := range [2]int{fs.allocHint, 0} {
		for idx, ok := fs.free.Next(from); ok; idx, ok = fs.free.Next(idx + 1) {
			if fs.segAddr(idx) != fs.curSeg {
				fs.allocHint = (idx + 1) % int(fs.sb.NSegs)
				return idx, nil
			}
		}
	}
	return 0, ErrNoSpace
}

// sealSegment writes the current segment's image (summary + staged blocks,
// zero to full length) to the device as one large sequential write — a full
// stripe on the paper's configuration — and opens the next free segment.
func (fs *FS) sealSegment(p *sim.Proc) error {
	if err := fs.failed(); err != nil {
		return err
	}
	if len(fs.segEntries) == 0 {
		return nil
	}
	nextIdx, err := fs.pickFreeSegment()
	if err != nil {
		return err
	}
	nextAddr := fs.segAddr(nextIdx)

	sum := summary{
		Seq:     fs.segSeq,
		Time:    int64(fs.eng.Now()),
		NextSeg: nextAddr,
		Entries: fs.segEntries,
	}
	image := fs.segImage
	sum.marshal(fs.summaryOf(image))
	blocks := int64(fs.sumBlks + len(fs.segEntries))
	fs.clearStale(image, blocks)

	curIdx := fs.segOf(fs.curSeg)
	fs.free.Remove(curIdx)
	fs.usageSeq[curIdx] = fs.segSeq
	fs.markUsageDirty(curIdx)
	if len(fs.segEntries) < fs.segDataBlks {
		fs.stats.PartialSegSeals++
	}
	fs.stats.SegmentsWritten++

	// Write the segment asynchronously: newer segments fill while this one
	// streams to the array.  Its blocks stay readable from the image until
	// the device write completes; from here on nothing writes to the image.
	sealSeg := fs.curSeg
	fs.inflight[curIdx] = image
	fs.seals.Go("lfs-seal", func(q *sim.Proc) error {
		// Whatever becomes of the write, the pool has its place back when it
		// ends: a waiting append wakes, and finds the error if there is one.
		defer fs.imageSlots.Release()
		defer q.Span("lfs", "segment-write")()
		if err := fs.dev.Write(q, sealSeg*int64(fs.blockSectors), image); err != nil {
			// The segment never reached the array: keep its blocks readable
			// (the image stays out of the pool for good) and surface the loss
			// at the next append or sync.
			return fmt.Errorf("lfs: segment write: %w", err)
		}
		// The pointer blocks that are still live move to the metadata cache,
		// so the next walk through them does not go to the device for what
		// was in memory a moment ago.
		for addr := fs.entryAddr(sealSeg, 0); addr < sealSeg+blocks; addr++ {
			if _, ok := fs.stagedPtrs[addr]; ok {
				delete(fs.stagedPtrs, addr)
				fs.cacheMeta(addr, bytes.Clone(slot(image, addr-sealSeg)))
			}
		}
		delete(fs.inflight, curIdx)
		fs.images.Put(image[:blocks*BlockSize]) // the rest is zero
		return nil
	})
	fs.curSeg = nextAddr
	fs.free.Remove(nextIdx)
	fs.usageLive[nextIdx] = 0
	fs.segSeq++
	fs.resetSegment()
	fs.startCleaner()
	return nil
}

// clearStale zeroes what the current image still holds of its last segment
// past its first blocks blocks, the ones this segment wrote.
func (fs *FS) clearStale(image []byte, blocks int64) {
	if used := int(blocks) * BlockSize; fs.segStale > used {
		clear(image[used:fs.segStale])
	}
	fs.segStale = 0
}

// failed returns the error that keeps this FS from writing: ErrCrashed after
// Crash, else the first failed segment write.
func (fs *FS) failed() error {
	if fs.crashed {
		return ErrCrashed
	}
	return fs.seals.Err()
}

// waitSeals waits for every sealed segment to reach the device.
func (fs *FS) waitSeals(p *sim.Proc) error {
	if err := fs.seals.Wait(p); err != nil {
		return err
	}
	return fs.failed()
}

// flushInodes appends every dirty inode to the log in ascending order,
// including one dirtied above the last appended while the loop runs.
func (fs *FS) flushInodes(p *sim.Proc) error {
	for inum := range fs.idirty.All() {
		if err := fs.appendInode(p, fs.icache[inum]); err != nil {
			return err
		}
		fs.idirty.Remove(inum)
	}
	return nil
}

// appendInode writes an inode block to the log and updates the inode map.
func (fs *FS) appendInode(p *sim.Proc, in *inode) error {
	addr, err := fs.restage(p, kindInode, in.Inum, 0, func() int64 { return fs.imap[in.Inum] }, in.marshal)
	if err != nil || addr == fs.imap[in.Inum] {
		return err
	}
	fs.imap[in.Inum] = addr
	fs.imapDirty.Add(int(in.Inum) / imapChunkEntries)
	return nil
}

// stageImapChunk writes inode-map chunk chunk to the log.
func (fs *FS) stageImapChunk(p *sim.Proc, chunk int) error {
	addr, err := fs.restage(p, kindImap, uint32(chunk), 0, func() int64 { return fs.imapAddrs[chunk] }, func(b []byte) {
		base := chunk * imapChunkEntries
		for i := 0; i < imapChunkEntries && base+i < len(fs.imap); i++ {
			le.PutUint64(b[i*8:], uint64(fs.imap[base+i]))
		}
	})
	if err != nil {
		return err
	}
	fs.imapAddrs[chunk] = addr
	fs.imapDirty.Remove(chunk)
	return nil
}

// stageUsageChunk writes segment-usage chunk chunk to the log: best-effort
// (the append itself, and a seal it may cause, perturb the live counts
// slightly; the cleaner re-verifies liveness anyway).
func (fs *FS) stageUsageChunk(p *sim.Proc, chunk int) error {
	addr, err := fs.restage(p, kindSegUsage, uint32(chunk), 0, func() int64 { return fs.usageAddrs[chunk] }, func(b []byte) {
		fs.marshalUsageChunk(chunk, b)
	})
	if err != nil {
		return err
	}
	fs.usageAddrs[chunk] = addr
	return nil
}

// Sync flushes dirty inodes and seals the current segment, making all
// completed operations durable.
func (fs *FS) Sync(p *sim.Proc) error {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	return fs.syncLocked(p)
}

func (fs *FS) syncLocked(p *sim.Proc) error {
	if err := fs.flushInodes(p); err != nil {
		return err
	}
	if err := fs.sealSegment(p); err != nil {
		return err
	}
	return fs.waitSeals(p)
}

// Commit appends every dirty inode to the open segment without sealing it.
// Where the segment images are battery-backed that makes everything written
// before the call durable, since a crash hands the images to MountTail; so
// a commit costs no partial segment, and the segment seals when it fills, or
// at the next Sync or Checkpoint.
func (fs *FS) Commit(p *sim.Proc) error {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	if err := fs.failed(); err != nil {
		return err
	}
	return fs.flushInodes(p)
}

// Checkpoint makes the file system state recoverable without roll-forward:
// it flushes inodes, writes dirty inode-map and segment-usage chunks to the
// log, seals the segment, and writes the alternate checkpoint region.  The
// two regions alternate so a crash during checkpointing leaves the previous
// one intact.
func (fs *FS) Checkpoint(p *sim.Proc) error {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	return fs.checkpointLocked(p)
}

func (fs *FS) checkpointLocked(p *sim.Proc) error {
	defer p.Span("lfs", "checkpoint")()
	// A staging append can clean inline (makeRoom), which moves inodes and
	// file blocks and so dirties inodes and chunks this pass has done: pass
	// again until one leaves nothing dirty.  Without a clean one pass does.
	for {
		if err := fs.flushInodes(p); err != nil {
			return err
		}
		for chunk := range fs.imapDirty.All() {
			if err := fs.stageImapChunk(p, chunk); err != nil {
				return err
			}
		}
		for chunk := range fs.usageDirty.All() {
			if err := fs.stageUsageChunk(p, chunk); err != nil {
				return err
			}
			fs.usageDirty.Remove(chunk)
		}
		if fs.idirty.Len() == 0 && fs.imapDirty.Len() == 0 {
			break
		}
	}
	if err := fs.sealSegment(p); err != nil {
		return err
	}
	if err := fs.waitSeals(p); err != nil {
		return err
	}

	fs.cpSeq++
	cp := checkpoint{
		Seq:        fs.cpSeq,
		Time:       int64(fs.eng.Now()),
		NextSeg:    fs.curSeg,
		NextSegSeq: fs.segSeq,
		NextInum:   fs.nextInum,
		ImapAddrs:  fs.imapAddrs,
		UsageAddrs: fs.usageAddrs,
	}
	raw, err := cp.marshal(int(fs.sb.CPBlocks) * BlockSize)
	if err != nil {
		return err
	}
	if err := fs.dev.Write(p, fs.sb.CPAddr[fs.cpNext]*int64(fs.blockSectors), raw); err != nil {
		return fmt.Errorf("lfs: checkpoint write: %w", err)
	}
	fs.cpNext = 1 - fs.cpNext
	fs.stats.Checkpoints++
	return nil
}

// marshalUsageChunk writes segment-usage chunk chunk into buf, a block.
func (fs *FS) marshalUsageChunk(chunk int, buf []byte) {
	clear(buf)
	base := chunk * usageChunkEntries
	for i := 0; i < usageChunkEntries && base+i < len(fs.usageLive); i++ {
		le.PutUint32(buf[i*16:], uint32(fs.usageLive[base+i]))
		le.PutUint64(buf[i*16+4:], fs.usageSeq[base+i])
		if fs.free.Has(base + i) {
			buf[i*16+12] = 1
		}
	}
}

func (fs *FS) unmarshalUsageChunk(chunk int, buf []byte) {
	base := chunk * usageChunkEntries
	for i := 0; i < usageChunkEntries && base+i < len(fs.usageLive); i++ {
		fs.usageLive[base+i] = int32(le.Uint32(buf[i*16:]))
		fs.usageSeq[base+i] = le.Uint64(buf[i*16+4:])
		if fs.free.Remove(base + i); buf[i*16+12] == 1 {
			fs.free.Add(base + i)
		}
	}
}

// recover loads the newest valid checkpoint and rolls the log forward, on
// the device and then through tail.
func (fs *FS) recover(p *sim.Proc, tail *Tail) error {
	defer p.Span("lfs", "recovery")()
	var best *checkpoint
	var bestIdx int
	for i := 0; i < 2; i++ {
		raw, err := fs.dev.Read(p, fs.sb.CPAddr[i]*int64(fs.blockSectors), int(fs.sb.CPBlocks)*fs.blockSectors)
		if err != nil {
			return fmt.Errorf("lfs: checkpoint read: %w", err)
		}
		var cp checkpoint
		if err := cp.unmarshal(raw); err != nil {
			continue
		}
		if best == nil || cp.Seq > best.Seq {
			c := cp
			best = &c
			bestIdx = i
		}
	}
	if best == nil {
		return ErrCorrupt
	}
	fs.cpSeq = best.Seq
	fs.cpNext = 1 - bestIdx
	fs.nextInum = best.NextInum
	copy(fs.imapAddrs, best.ImapAddrs)
	copy(fs.usageAddrs, best.UsageAddrs)

	// Load the usage table first (it also carries the free map), then imap.
	for chunk, addr := range fs.usageAddrs {
		if addr == 0 {
			continue
		}
		buf, err := fs.readBlock(p, addr)
		if err != nil {
			return fmt.Errorf("lfs: recover usage chunk: %w", err)
		}
		fs.unmarshalUsageChunk(chunk, buf)
	}
	for chunk, addr := range fs.imapAddrs {
		if addr == 0 {
			continue
		}
		buf, err := fs.readBlock(p, addr)
		if err != nil {
			return fmt.Errorf("lfs: recover imap chunk: %w", err)
		}
		base := chunk * imapChunkEntries
		for i := 0; i < imapChunkEntries && base+i < len(fs.imap); i++ {
			fs.imap[base+i] = int64(le.Uint64(buf[i*8:]))
		}
	}

	// Roll forward through segments written after the checkpoint.  Where the
	// device's chain ends the tail's may go on: a sealed segment the device
	// lacks is written now, and the open one is open again.
	segAddr := best.NextSeg
	expect := best.NextSegSeq
	var open *tailSeg
	for {
		idx := fs.segOf(segAddr)
		if idx < 0 || idx >= int(fs.sb.NSegs) {
			break
		}
		raw, err := fs.dev.Read(p, segAddr*int64(fs.blockSectors), fs.sumBlks*fs.blockSectors)
		if err != nil {
			return fmt.Errorf("lfs: roll-forward read: %w", err)
		}
		var sum summary
		if err := sum.unmarshal(raw); err != nil || sum.Seq != expect {
			ts := tail.find(segAddr, expect)
			if ts == nil {
				break
			}
			if ts.entries != nil {
				open = ts
				break
			}
			if err := fs.dev.Write(p, segAddr*int64(fs.blockSectors), ts.image); err != nil {
				return fmt.Errorf("lfs: tail segment write: %w", err)
			}
			if err := sum.unmarshal(fs.summaryOf(ts.image)); err != nil {
				return err
			}
		}
		if err := fs.applyRolledSegment(p, segAddr, &sum); err != nil {
			return err
		}
		fs.stats.RollForwardSegs++
		segAddr = sum.NextSeg
		expect++
	}

	// The log continues in the first unwritten segment of the chain: the
	// crash's open segment, with its blocks, if the tail has it.
	fs.curSeg = segAddr
	fs.segSeq = expect
	if open != nil {
		fs.imageSlots.TryAcquire() // the pool is new: this is its first image
		fs.segEntries, fs.segImage = open.entries, open.image
		if err := fs.applyRolledSegment(p, segAddr, &summary{Seq: expect, Entries: open.entries}); err != nil {
			return err
		}
		fs.stats.RollForwardSegs++
	} else {
		idx := fs.segOf(segAddr)
		if idx < 0 || idx >= int(fs.sb.NSegs) || (!fs.free.Has(idx) && fs.usageLive[idx] > 0) {
			// The designated next segment is unusable; pick a fresh one.
			fs.curSeg = -1
			ni, err := fs.pickFreeSegment()
			if err != nil {
				return err
			}
			fs.curSeg = fs.segAddr(ni)
			idx = ni
		}
		fs.free.Remove(idx)
		fs.resetSegment()
	}

	// Settle recovered state into a fresh checkpoint.
	return fs.checkpointLocked(p)
}

// applyRolledSegment re-applies a post-checkpoint segment's metadata
// effects: inode locations and imap/usage chunk locations.  Data blocks
// need no action — the inode written later in the log references them.
// Usage accounting for rolled segments is conservative (every described
// block counted live); the cleaner verifies real liveness before moving
// anything.
func (fs *FS) applyRolledSegment(p *sim.Proc, segAddr int64, sum *summary) error {
	idx := fs.segOf(segAddr)
	fs.free.Remove(idx)
	fs.usageLive[idx] = int32(len(sum.Entries)) * BlockSize
	fs.usageSeq[idx] = sum.Seq
	fs.markUsageDirty(idx)
	for i, e := range sum.Entries {
		addr := fs.entryAddr(segAddr, i)
		switch e.Kind {
		case kindInode:
			if int(e.Arg1) < len(fs.imap) {
				fs.imap[e.Arg1] = addr
				fs.imapDirty.Add(int(e.Arg1) / imapChunkEntries)
				delete(fs.icache, e.Arg1) // force reload from log
			}
		case kindImap:
			if int(e.Arg1) < len(fs.imapAddrs) {
				fs.imapAddrs[e.Arg1] = addr
				buf, err := fs.readBlock(p, addr)
				if err != nil {
					return fmt.Errorf("lfs: roll-forward imap chunk: %w", err)
				}
				base := int(e.Arg1) * imapChunkEntries
				for j := 0; j < imapChunkEntries && base+j < len(fs.imap); j++ {
					fs.imap[base+j] = int64(le.Uint64(buf[j*8:]))
				}
			}
		case kindSegUsage:
			if int(e.Arg1) < len(fs.usageAddrs) {
				fs.usageAddrs[e.Arg1] = addr
				// Note: do not reload the chunk; in-memory accounting from
				// the roll-forward is at least as current.
			}
		}
	}
	return nil
}

// Tail is the end of the log a crash leaves in the segment images: every
// sealed segment whose device write had not completed, and the open segment
// with its summary entries.  Where the images are battery-backed it
// survives the crash, and MountTail rolls it forward after the device's log.
type Tail struct {
	segs []tailSeg
}

// tailSeg is one image of a Tail: the segment at block address addr with
// sequence number seq.  A sealed image carries its summary; the open one's
// entries are not marshalled yet, and are nil for a sealed one.
type tailSeg struct {
	addr    int64
	seq     uint64
	entries []summaryEntry
	image   []byte
}

// Len returns the number of segment images the tail holds.
func (t *Tail) Len() int {
	if t == nil {
		return 0
	}
	return len(t.segs)
}

// find returns the tail's image of segment seq at addr, or nil.
func (t *Tail) find(addr int64, seq uint64) *tailSeg {
	for i := range t.Len() {
		if s := &t.segs[i]; s.addr == addr && s.seq == seq {
			return s
		}
	}
	return nil
}

// Crash simulates a power failure.  The FS is unusable afterwards: a process
// still inside it gets ErrCrashed at its next write, and seals already in
// flight complete unheard.  It returns the images that hold blocks the
// device may lack, which survive only if they are battery-backed: mount the
// device again with MountTail to recover them, or with Mount to lose them.
// Crashing a crashed FS returns nil.
func (fs *FS) Crash() *Tail {
	if fs.crashed {
		return nil
	}
	fs.crashed = true
	t := &Tail{}
	for idx, image := range fs.inflight {
		t.segs = append(t.segs, tailSeg{addr: fs.segAddr(idx), seq: fs.usageSeq[idx], image: image})
	}
	if len(fs.segEntries) > 0 {
		fs.clearStale(fs.segImage, int64(fs.sumBlks+len(fs.segEntries)))
		t.segs = append(t.segs, tailSeg{addr: fs.curSeg, seq: fs.segSeq, entries: fs.segEntries, image: fs.segImage})
	}
	fs.segEntries, fs.segImage = nil, nil
	fs.inflight = nil
	fs.images = bytepath.FreeList{} // keeps nothing: writes still in flight complete into a dead FS
	return t
}

// String describes the file system geometry.
func (fs *FS) String() string {
	return fmt.Sprintf("lfs(%d segs x %d KB, %d free)",
		fs.sb.NSegs, fs.SegmentBytes()/1024, fs.FreeSegments())
}

// Pending reports how many segment images hold blocks the device does not
// have yet: the current segment if it has any, and every sealed one in
// flight.  They are the images a crash now would hand back (Crash).
func (fs *FS) Pending() int {
	n := len(fs.inflight)
	if len(fs.segEntries) > 0 {
		n++
	}
	return n
}
