// Package cache models the XBUS-resident block cache: a slice of the
// board's 32 MB crossbar DRAM managed as an LRU collection of fixed-size
// cache lines in front of the RAID array.  The paper's board stages all
// data moving between the disks and the HIPPI network through this memory;
// the cache reuses that staging so re-reads of recently transferred blocks
// are served from DRAM at crossbar speed instead of paying disk latency.
//
// Timing model: a hit still crosses the crossbar memory system on its way
// to the network port, so hits charge one memory pass over the supplied
// hop.  A miss charges the full backing-store read (VME disk ports, SCSI
// strings, platters) exactly as an uncached read would, because the fill
// is that read.  Eviction order is strict LRU maintained in the calling
// process, so identical workloads produce identical victim sequences and
// byte-identical traces.
//
// The cache is write-through: writes always reach the backing store with
// their normal cost, then update any overlapping resident lines in place
// (never leaving a stale hit behind).  With StageWrites set, fully covered
// lines are also write-allocated so a read of freshly written data hits
// memory — the LFS segment-write staging of the tentpole design.
package cache

import (
	"fmt"

	"raidii/internal/bytepath"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// DefaultLineBytes is the default cache line size: 64 KB, one stripe unit
// of the paper's array, so a line fill is a single-disk sequential read.
const DefaultLineBytes = 64 << 10

// Backing is the sector-addressable store beneath the cache — normally a
// raid.Array; anything implementing the lfs.Device shape works.  Errors
// are array-level data loss (raid.ErrArrayFailed), passed through to the
// caller untouched.
type Backing = bytepath.Device

// streamer is the optional benchmark-mode write path of the backing store
// (raid.Array.WriteStreaming).
type streamer interface {
	WriteStreaming(p *sim.Proc, lba int64, data []byte) error
}

// Config sizes the cache.
type Config struct {
	// SizeBytes is the DRAM carved out for cache lines.
	SizeBytes int
	// LineBytes is the cache line size (default DefaultLineBytes).  Must
	// divide evenly into whole sectors.
	LineBytes int
	// StageWrites write-allocates lines fully covered by a write, so reads
	// of freshly written data hit memory.
	StageWrites bool
}

// Stats counts cache activity.  Byte counters measure data volume: HitBytes
// is request bytes served from resident lines, FillBytes is bytes read from
// the backing store to fill lines (≥ miss bytes, since fills are whole
// lines).
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Updates       uint64 // write overlays of resident lines
	Staged        uint64 // write-allocated lines
	Invalidations uint64 // lines dropped by InvalidateAll
	HitBytes      uint64
	FillBytes     uint64
}

// line is one resident cache line on the intrusive LRU list.  data is a
// buffer of this line alone, a full line in capacity; only the device's last
// line can be shorter in length.
type line struct {
	tag        int64 // line index: first sector / lineSecs
	data       []byte
	prev, next *line
}

// Cache is an LRU block cache over a Backing store.  All methods must be
// called from simulated processes of the engine it was created on.
type Cache struct {
	eng      *sim.Engine
	dev      Backing
	mem      sim.Path // crossbar memory hop charged for hit traffic
	secSize  int
	lineSecs int
	maxLines int
	devSecs  int64
	noStage  bool

	table      map[int64]*line
	head, tail *line // head = most recently used
	stats      Stats

	// free holds the buffers of evicted and invalidated lines, at most
	// maxLines of them, for the next lines installed: nothing outside the
	// cache ever holds a line's buffer, so a cache at capacity fills without
	// allocating.  fills holds the buffers miss runs are read into before
	// their lines are copied out.
	free  bytepath.FreeList
	fills bytepath.FreeList
}

// maxFreeFills bounds the fill-run buffers a cache keeps: one per miss run
// in flight at once in the file-server loop, with room to spare.
const maxFreeFills = 4

// New creates a cache in front of dev.  mem is the crossbar memory hop hits
// are charged against (nil charges nothing — unit tests only).  The caller
// is responsible for reserving cfg.SizeBytes of board DRAM.
func New(e *sim.Engine, dev Backing, mem sim.Hop, cfg Config) (*Cache, error) {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = DefaultLineBytes
	}
	secSize := dev.SectorSize()
	if cfg.LineBytes <= 0 || cfg.LineBytes%secSize != 0 {
		return nil, fmt.Errorf("cache: line size %d is not a positive multiple of the %d-byte sector", cfg.LineBytes, secSize)
	}
	maxLines := cfg.SizeBytes / cfg.LineBytes
	if maxLines < 1 {
		return nil, fmt.Errorf("cache: size %d holds no %d-byte lines", cfg.SizeBytes, cfg.LineBytes)
	}
	c := &Cache{
		eng:      e,
		dev:      dev,
		secSize:  secSize,
		lineSecs: cfg.LineBytes / secSize,
		maxLines: maxLines,
		devSecs:  dev.Sectors(),
		table:    make(map[int64]*line),
		free:     bytepath.NewFreeList(maxLines),
		fills:    bytepath.NewFreeList(maxFreeFills),
	}
	c.noStage = !cfg.StageWrites
	if mem != nil {
		c.mem = sim.Path{mem}
	}
	return c, nil
}

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Lines reports the number of resident lines.
func (c *Cache) Lines() int { return len(c.table) }

// LineBytes reports the configured line size.
func (c *Cache) LineBytes() int { return c.lineSecs * c.secSize }

// Sectors implements the lfs.Device shape by delegating to the backing store.
func (c *Cache) Sectors() int64 { return c.dev.Sectors() }

// SectorSize implements the lfs.Device shape by delegating to the backing store.
func (c *Cache) SectorSize() int { return c.dev.SectorSize() }

// InvalidateAll drops every resident line — the board crash path.  The
// backing store is write-through so no data are lost, but post-crash reads
// pay full disk cost again.
func (c *Cache) InvalidateAll() {
	c.stats.Invalidations += uint64(len(c.table))
	for ln := c.head; ln != nil; ln = ln.next {
		c.free.Put(ln.data)
	}
	clear(c.table)
	c.head, c.tail = nil, nil
}

// --- LRU list ---

func (c *Cache) pushFront(ln *line) {
	ln.prev = nil
	ln.next = c.head
	if c.head != nil {
		c.head.prev = ln
	}
	c.head = ln
	if c.tail == nil {
		c.tail = ln
	}
}

func (c *Cache) unlink(ln *line) {
	if ln.prev != nil {
		ln.prev.next = ln.next
	} else {
		c.head = ln.next
	}
	if ln.next != nil {
		ln.next.prev = ln.prev
	} else {
		c.tail = ln.prev
	}
	ln.prev, ln.next = nil, nil
}

func (c *Cache) touch(ln *line) {
	if c.head == ln {
		return
	}
	c.unlink(ln)
	c.pushFront(ln)
}

// evict drops the least recently used line and keeps its buffer.  The
// zero-length span makes every eviction visible in traces and the -util
// effectiveness report.
func (c *Cache) evict(p *sim.Proc) {
	ln := c.tail
	c.unlink(ln)
	delete(c.table, ln.tag)
	c.free.Put(ln.data)
	c.stats.Evictions++
	p.Span("cache", "evict")()
}

// install makes a copy of data (a line, or the device's shorter last one)
// resident as line li, evicting from the LRU tail under capacity pressure.
// If a concurrent fill already installed the line, the newer data refresh
// it in place.
func (c *Cache) install(p *sim.Proc, li int64, data []byte) {
	if ln, ok := c.table[li]; ok {
		ln.data = ln.data[:copy(ln.data[:cap(ln.data)], data)]
		c.touch(ln)
		return
	}
	for len(c.table) >= c.maxLines {
		c.evict(p)
	}
	buf := c.free.Get(c.lineSecs * c.secSize)
	ln := &line{tag: li, data: buf[:copy(buf, data)]}
	c.table[li] = ln
	c.pushFront(ln)
}

// copyOverlap copies the intersection of line li's data with the request
// [reqLBA, reqLBA+reqSecs) into out and returns the bytes copied.
func (c *Cache) copyOverlap(out []byte, reqLBA int64, reqSecs int, li int64, data []byte) int {
	lineStart := li * int64(c.lineSecs)
	start := lineStart
	if reqLBA > start {
		start = reqLBA
	}
	end := lineStart + int64(len(data)/c.secSize)
	if e := reqLBA + int64(reqSecs); e < end {
		end = e
	}
	if end <= start {
		return 0
	}
	n := copy(out[(start-reqLBA)*int64(c.secSize):], data[(start-lineStart)*int64(c.secSize):(end-lineStart)*int64(c.secSize)])
	return n
}

// fillRun is a maximal run of consecutive missing lines, filled with one
// backing-store read so the array parallelizes it across the stripe exactly
// as an uncached read would.
type fillRun struct {
	firstLine, lastLine int64
	data                []byte
}

// Read returns n sectors at lba in a fresh buffer; see ReadInto.
func (c *Cache) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	out := make([]byte, n*c.secSize)
	if err := c.ReadInto(p, lba, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto reads the len(out)/SectorSize sectors at lba into the caller's
// out, serving resident lines from DRAM (one crossbar memory pass for all
// hit bytes) and filling missing lines from the backing store at full disk
// cost.  Lines are installed in ascending sector order by the calling
// process, so LRU state — and therefore the eviction sequence — is
// independent of fill completion order.  A fill lands in a buffer of the
// cache's and is copied from there into the lines' own buffers and into out.
func (c *Cache) ReadInto(p *sim.Proc, lba int64, out []byte) error {
	defer p.Span("cache", "read")()
	n := len(out) / c.secSize
	if n <= 0 {
		return nil
	}
	first := lba / int64(c.lineSecs)
	last := (lba + int64(n) - 1) / int64(c.lineSecs)
	var hitBytes int
	var runs []fillRun
	for li := first; li <= last; li++ {
		if ln, ok := c.table[li]; ok {
			c.touch(ln)
			c.stats.Hits++
			telemetry.CacheHit(p)
			hitBytes += c.copyOverlap(out, lba, n, li, ln.data)
			p.Span("cache", "hit")()
			continue
		}
		c.stats.Misses++
		telemetry.CacheMiss(p)
		p.Span("cache", "miss")()
		if len(runs) > 0 && runs[len(runs)-1].lastLine == li-1 {
			runs[len(runs)-1].lastLine = li
		} else {
			runs = append(runs, fillRun{firstLine: li, lastLine: li})
		}
	}
	if len(runs) > 0 {
		g := p.Fork()
		for i := range runs {
			r := &runs[i]
			start := r.firstLine * int64(c.lineSecs)
			secs := int(r.lastLine-r.firstLine+1) * c.lineSecs
			if start+int64(secs) > c.devSecs {
				secs = int(c.devSecs - start)
			}
			r.data = c.fills.Get(secs * c.secSize)
			g.Go("cache-fill", func(q *sim.Proc) error {
				return bytepath.ReadInto(c.dev, q, start, r.data)
			})
		}
		// The hit traffic crosses the crossbar while the fills are in
		// flight; both settle before lines are installed.
		if hitBytes > 0 {
			c.mem.Send(p, hitBytes, 0)
		}
		if err := g.Wait(p); err != nil {
			return err // the fill buffers go to the collector
		}
		for _, r := range runs {
			c.stats.FillBytes += uint64(len(r.data))
			lineBytes := c.lineSecs * c.secSize
			for li := r.firstLine; li <= r.lastLine; li++ {
				off := int(li-r.firstLine) * lineBytes
				if off >= len(r.data) {
					break
				}
				data := r.data[off:min(off+lineBytes, len(r.data))]
				c.install(p, li, data)
				c.copyOverlap(out, lba, n, li, data)
			}
			c.fills.Put(r.data)
		}
	} else if hitBytes > 0 {
		c.mem.Send(p, hitBytes, 0)
	}
	c.stats.HitBytes += uint64(hitBytes)
	return nil
}

// Write stores data write-through: the backing store is updated at full
// cost first, then resident lines overlapping the write are refreshed in
// place so no stale hit survives.  With staging enabled, lines the write
// fully covers are also installed.
func (c *Cache) Write(p *sim.Proc, lba int64, data []byte) error {
	defer p.Span("cache", "write")()
	if err := c.dev.Write(p, lba, data); err != nil {
		return err
	}
	c.absorb(p, lba, data)
	return nil
}

// WriteStreaming is Write over the backing store's benchmark-mode
// streaming path when it has one.
func (c *Cache) WriteStreaming(p *sim.Proc, lba int64, data []byte) error {
	defer p.Span("cache", "write-streaming")()
	var err error
	if st, ok := c.dev.(streamer); ok {
		err = st.WriteStreaming(p, lba, data)
	} else {
		err = c.dev.Write(p, lba, data)
	}
	if err != nil {
		return err
	}
	c.absorb(p, lba, data)
	return nil
}

// absorb applies a completed write to the resident lines.  It charges no
// simulated time: the write already crossed the crossbar on its way to the
// array, and the overlay models the lines having observed that pass.
func (c *Cache) absorb(p *sim.Proc, lba int64, data []byte) {
	nsecs := len(data) / c.secSize
	if nsecs == 0 {
		return
	}
	first := lba / int64(c.lineSecs)
	last := (lba + int64(nsecs) - 1) / int64(c.lineSecs)
	for li := first; li <= last; li++ {
		lineStart := li * int64(c.lineSecs)
		ovStart := lineStart
		if lba > ovStart {
			ovStart = lba
		}
		ovEnd := lineStart + int64(c.lineSecs)
		if e := lba + int64(nsecs); e < ovEnd {
			ovEnd = e
		}
		if ln, ok := c.table[li]; ok {
			// Overlay the overlapping sectors (clamped to the line's actual
			// extent — the device's tail line may be short).
			src := data[(ovStart-lba)*int64(c.secSize) : (ovEnd-lba)*int64(c.secSize)]
			dstOff := (ovStart - lineStart) * int64(c.secSize)
			if dstOff < int64(len(ln.data)) {
				copy(ln.data[dstOff:], src)
			}
			c.touch(ln)
			c.stats.Updates++
		} else if !c.noStage && ovStart == lineStart && ovEnd == lineStart+int64(c.lineSecs) && ovEnd <= c.devSecs {
			c.install(p, li, data[(ovStart-lba)*int64(c.secSize):(ovEnd-lba)*int64(c.secSize)])
			c.stats.Staged++
		}
	}
}
