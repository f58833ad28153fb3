// Package cache models the XBUS-resident block cache: a slice of the
// board's 32 MB crossbar DRAM managed as an LRU collection of fixed-size
// cache lines in front of the RAID array.  The paper's board stages all
// data moving between the disks and the HIPPI network through this memory;
// the cache reuses that staging so re-reads of recently transferred blocks
// are served from DRAM at crossbar speed instead of paying disk latency.
//
// Lines are sectored (Liptay's sector cache): the line is the unit of
// lookup, LRU order and eviction, and each of its sectors is valid or not on
// its own.  A read hits a line when every sector it wants there is valid; a
// miss fetches only the sectors it lacks, never the rest of the line.
//
// Timing model: a hit still crosses the crossbar memory system on its way
// to the network port, so the valid sectors a read is served charge one
// memory pass over the supplied hop.  A miss charges the backing-store read
// (VME disk ports, SCSI strings, platters) of only the sectors it lacks,
// exactly as an uncached read of those sectors would, because the fill is
// that read.  Eviction order is strict LRU maintained in the calling
// process, so identical workloads produce identical victim sequences and
// byte-identical traces.
//
// The cache is write-through: writes always reach the backing store with
// their normal cost, then update any overlapping resident lines in place
// and make the written sectors valid (never leaving a stale hit behind).
// With StageWrites set, fully covered lines are also write-allocated so a
// read of freshly written data hits memory — the board staging LFS segment
// writes in XBUS memory.
package cache

import (
	"fmt"

	"raidii/internal/bytepath"
	"raidii/internal/sim"
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

// Stats counts cache activity.  Hits and Misses count lines a read touched:
// a hit when every sector the read wanted there was valid, a miss otherwise.
// Byte counters measure data volume: HitBytes is request bytes served from
// valid sectors, FillBytes is bytes read from the backing store, exactly the
// request sectors that were not valid.
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

// sectors is a bitmap over the sectors of one line.
type sectors []byte

func (b sectors) has(s int) bool { return b[s>>3]&(1<<(s&7)) != 0 }

func (b sectors) add(from, to int) {
	for s := from; s < to; s++ {
		b[s>>3] |= 1 << (s & 7)
	}
}

// all reports whether every sector of [from, to) is in b.
func (b sectors) all(from, to int) bool { return b.has(from) && b.runEnd(from, to) == to }

// runEnd returns the end of the run of sectors starting at from, before to,
// that are all in b or all out of it.
func (b sectors) runEnd(from, to int) int {
	in := b.has(from)
	for from++; from < to && b.has(from) == in; from++ {
	}
	return from
}

// line is one resident cache line on the intrusive LRU list.  data holds a
// full line of sectors, of which valid says which hold the device's bytes;
// both come back with the record when it is recycled.
type line struct {
	tag        int64 // line index: first sector / lineSecs
	data       []byte
	valid      sectors
	prev, next *line
}

// filling is what a line's fills in flight have to leave alone: the sectors
// a write reached since the first of them began.  A fill that read the
// device before the write landed holds the old bytes there.
type filling struct {
	written sectors
	fills   int // runs of the line's sectors being filled
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

	// free holds the records of evicted and invalidated lines, buffers and
	// bitmaps included, for the next lines made resident: there are never
	// more than maxLines records, so a cache at capacity fills without
	// allocating.
	free []*line

	// inFlight holds the fill state of every line a read is filling, and
	// spare the records of lines no longer filling.
	inFlight map[int64]*filling
	spare    []*filling
}

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
		inFlight: make(map[int64]*filling),
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
		c.free = append(c.free, ln)
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

// evict drops the least recently used line and keeps its record.  The
// zero-length span makes every eviction visible in traces and the -util
// effectiveness report.
func (c *Cache) evict(p *sim.Proc) {
	ln := c.tail
	c.unlink(ln)
	delete(c.table, ln.tag)
	c.free = append(c.free, ln)
	c.stats.Evictions++
	p.Span("cache", "evict")()
}

// allocate makes line li resident at the MRU end with no sector valid,
// evicting from the LRU tail under capacity pressure.
func (c *Cache) allocate(p *sim.Proc, li int64) *line {
	for len(c.table) >= c.maxLines {
		c.evict(p)
	}
	var ln *line
	if k := len(c.free); k > 0 {
		ln = c.free[k-1]
		c.free = c.free[:k-1]
		clear(ln.valid)
	} else {
		ln = &line{data: make([]byte, c.lineSecs*c.secSize), valid: make(sectors, (c.lineSecs+7)/8)}
	}
	ln.tag = li
	c.table[li] = ln
	c.pushFront(ln)
	return ln
}

// install copies sectors [from, to) of line li from src, a fill of exactly
// those sectors, into the line, making it resident if it is not.  It fills
// only sectors that are still invalid and that no write reached while the
// fill was in flight: those already hold the newer bytes, or will come from
// the device on the next read.
func (c *Cache) install(p *sim.Proc, li int64, from, to int, src []byte) {
	ln, ok := c.table[li]
	if ok {
		c.touch(ln)
	} else {
		ln = c.allocate(p, li)
	}
	written := c.inFlight[li].written
	stale := func(s int) bool { return ln.valid.has(s) || written.has(s) }
	for s := from; s < to; {
		if stale(s) {
			s++
			continue
		}
		e := s + 1
		for e < to && !stale(e) {
			e++
		}
		copy(ln.data[s*c.secSize:e*c.secSize], src[(s-from)*c.secSize:])
		ln.valid.add(s, e)
		s = e
	}
}

// startFill records a fill of part of line li in flight; endFill, once
// that part has landed or failed, drops the record with the last part.
func (c *Cache) startFill(li int64) {
	f := c.inFlight[li]
	if f == nil {
		if k := len(c.spare); k > 0 {
			f = c.spare[k-1]
			c.spare = c.spare[:k-1]
			clear(f.written)
		} else {
			f = &filling{written: make(sectors, (c.lineSecs+7)/8)}
		}
		c.inFlight[li] = f
	}
	f.fills++
}

func (c *Cache) endFill(li int64) {
	f := c.inFlight[li]
	if f.fills--; f.fills == 0 {
		delete(c.inFlight, li)
		c.spare = append(c.spare, f)
	}
}

// fillRun is a maximal run of consecutive missing sectors [start, end),
// which may cross lines, filled with one backing-store read so the array
// parallelizes it across the stripe exactly as an uncached read would.
type fillRun struct{ start, end int64 }

// Read returns n sectors at lba in a fresh buffer; see ReadInto.
func (c *Cache) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	out := make([]byte, n*c.secSize)
	if err := c.ReadInto(p, lba, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto reads the len(out)/SectorSize sectors at lba into the caller's
// out, serving valid sectors from DRAM (one crossbar memory pass for all hit
// bytes) and reading the rest from the backing store straight into out.
// Lines are installed in ascending sector order by the calling process, so
// LRU state — and therefore the eviction sequence — is independent of fill
// completion order.
func (c *Cache) ReadInto(p *sim.Proc, lba int64, out []byte) error {
	defer p.Span("cache", "read")()
	end := lba + int64(len(out)/c.secSize)
	if end <= lba {
		return nil
	}
	ls := int64(c.lineSecs)
	var hitBytes int
	var runs []fillRun
	for li := lba / ls; li*ls < end; li++ {
		base := li * ls
		from, to := int(max(lba, base)-base), int(min(end, base+ls)-base)
		ln, ok := c.table[li]
		if ok {
			c.touch(ln)
		}
		if ok && ln.valid.all(from, to) {
			c.stats.Hits++
			p.Span("cache", "hit")()
		} else {
			c.stats.Misses++
			p.Span("cache", "miss")()
		}
		for s := from; s < to; {
			e := to
			if ok {
				e = ln.valid.runEnd(s, to)
			}
			switch {
			case ok && ln.valid.has(s):
				hitBytes += copy(out[(base+int64(s)-lba)*int64(c.secSize):], ln.data[s*c.secSize:e*c.secSize])
			case len(runs) > 0 && runs[len(runs)-1].end == base+int64(s):
				c.startFill(li)
				runs[len(runs)-1].end = base + int64(e)
			default:
				c.startFill(li)
				runs = append(runs, fillRun{base + int64(s), base + int64(e)})
			}
			s = e
		}
	}
	var g *sim.Group
	if len(runs) > 0 {
		g = p.Fork()
		for _, r := range runs {
			dst := out[(r.start-lba)*int64(c.secSize) : (r.end-lba)*int64(c.secSize)]
			g.Go("cache-fill", func(q *sim.Proc) error {
				return bytepath.ReadInto(c.dev, q, r.start, dst)
			})
		}
	}
	// The hit traffic crosses the crossbar while the fills are in flight;
	// both settle before lines are installed.
	if hitBytes > 0 {
		c.mem.Send(p, hitBytes, 0)
	}
	if g != nil {
		err := g.Wait(p)
		for _, r := range runs {
			for s := r.start; s < r.end; {
				li := s / ls
				e := min(r.end, (li+1)*ls)
				if err == nil {
					c.stats.FillBytes += uint64(e-s) * uint64(c.secSize)
					c.install(p, li, int(s-li*ls), int(e-li*ls), out[(s-lba)*int64(c.secSize):])
				}
				c.endFill(li)
				s = e
			}
		}
		if err != nil {
			return err
		}
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

// absorb applies a completed write to the resident lines and makes the
// written sectors valid there, and notes them for the fills in flight.  It
// charges no simulated time: the write already crossed the crossbar on its
// way to the array, and the overlay models the lines having observed that
// pass.
func (c *Cache) absorb(p *sim.Proc, lba int64, data []byte) {
	end := lba + int64(len(data)/c.secSize)
	ls := int64(c.lineSecs)
	for li := lba / ls; li*ls < end; li++ {
		base := li * ls
		from, to := int(max(lba, base)-base), int(min(end, base+ls)-base)
		if f := c.inFlight[li]; f != nil {
			f.written.add(from, to)
		}
		ln, ok := c.table[li]
		if !ok {
			if c.noStage || from != 0 || to != c.lineSecs || base+ls > c.devSecs {
				continue
			}
			ln = c.allocate(p, li)
			c.stats.Staged++
		} else {
			c.touch(ln)
			c.stats.Updates++
		}
		copy(ln.data[from*c.secSize:to*c.secSize], data[(base+int64(from)-lba)*int64(c.secSize):])
		ln.valid.add(from, to)
	}
}
