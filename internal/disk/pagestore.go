package disk

import (
	"bytes"
	"runtime"
	"sync"
)

// pagestore holds the disk's contents sparsely: 64 KB pages are allocated
// only when written, so a simulation can address tens of gigabytes of array
// capacity while touching far less host memory.  Unwritten bytes read as
// zero, matching a freshly-formatted drive.  The page table is a slice
// sized at construction (24 bytes per 64 KB of capacity), so finding a page
// is an index, not a hash.
//
// A command's copy of a page or more runs beside the engine (start, join):
// on a host worker goroutine, between the command's actuator grant and its
// release, while the engine dispatches other events.  The actuator holds
// one command at a time, and a command joins its copy before it releases
// the actuator, so a drive has at most one copy in flight and every copy
// sees the store as the copies before it left it.  The zero-time methods
// (ReadAt, WriteAt, PagesAllocated) join first; they and a copy smaller
// than a page run on the caller's thread.
//
// A page changes owner only when its store dies.  Once nothing reaches a
// store, its cleanup hands the store's pages to the spare list, and the
// next store to materialize a page takes one from there before it
// allocates.  Whoever takes a spare page writes every byte of it before
// anything reads it: a whole-page write copies over it, a partial one
// clears it first.  A live store's pages are its own until it dies.
type pagestore struct {
	pages [][]byte // nil = never written

	mu      sync.Mutex
	pending pageCopy // the copy in flight, while queued
	queued  bool     // pending is set and nobody has taken it yet
	worker  bool     // the worker goroutine is alive
	work    func()   // the worker's body, made once: a go statement of it allocates nothing
}

// pageCopy is one command's copy: buf into the store at off, or out of it.
type pageCopy struct {
	buf   []byte
	off   int64
	write bool
}

const pageBytes = 64 * 1024

func newPagestore(size int64) *pagestore {
	ps := &pagestore{pages: make([][]byte, (size+pageBytes-1)/pageBytes)}
	ps.work = ps.drain
	// The cleanup gets the table, not ps: ps reaches itself through
	// ps.work, so a finalizer on it would never run.
	runtime.AddCleanup(ps, releasePages, ps.pages)
	return ps
}

// spares holds the pages of stores that nothing reaches any more.  Each
// entry is one dead store's page table, its pages compacted to the front;
// a new page comes off the end of the last one.  The list grows only from
// dead stores' pages, so it and the live stores together never hold more
// pages than the live stores did at their peak.
var spares struct {
	mu     sync.Mutex
	tables [][][]byte
}

// releasePages is a dead store's cleanup.  It keeps the table itself as
// the list entry, so it allocates nothing per page: the runtime's cleanup
// goroutine runs inside callers' allocation measurements too.
func releasePages(pages [][]byte) {
	n := 0
	for _, page := range pages {
		if page != nil {
			pages[n] = page
			n++
		}
	}
	if n == 0 {
		return
	}
	spares.mu.Lock()
	spares.tables = append(spares.tables, pages[:n])
	spares.mu.Unlock()
}

// sparePage takes a dead store's page, bytes as that store left them, or
// returns nil if there is none.
func sparePage() []byte {
	spares.mu.Lock()
	defer spares.mu.Unlock()
	last := len(spares.tables) - 1
	if last < 0 {
		return nil
	}
	t := spares.tables[last]
	page := t[len(t)-1]
	if len(t) == 1 {
		spares.tables[last] = nil
		spares.tables = spares.tables[:last]
	} else {
		spares.tables[last] = t[:len(t)-1]
	}
	return page
}

// start begins a command's copy of buf at off, into the store if write,
// else out of it; join waits for it.  The command holds the drive's
// actuator, so no other copy is in flight.  A copy of a page or more goes
// to the worker; handing a smaller one over would cost more than the copy,
// so it runs here.  buf belongs to the store until join returns.  The store
// checks no range: Disk.checkRange bounds every access before it gets here.
func (ps *pagestore) start(buf []byte, off int64, write bool) {
	c := pageCopy{buf, off, write}
	if len(buf) < pageBytes {
		c.run(ps)
		return
	}
	ps.mu.Lock()
	ps.pending, ps.queued = c, true
	if !ps.worker {
		ps.worker = true
		//lint:allow rawgo copies bytes into and out of this drive's own pages, touches no simulated state, and every copy is joined before its command releases the actuator
		go ps.work()
	}
	ps.mu.Unlock()
}

// join returns once the copy in flight has run.  It helps rather than
// sleeps: a copy nobody has taken yet it runs itself, and it waits on mu
// only while the worker runs one.  So a join never waits on a worker that
// has not been scheduled, and one P is enough.
func (ps *pagestore) join() {
	ps.mu.Lock()
	ps.takeLocked()
	ps.mu.Unlock()
}

// drain is the worker: it runs the copy in flight, if nobody has taken it,
// and exits.
func (ps *pagestore) drain() {
	ps.mu.Lock()
	ps.takeLocked()
	ps.worker = false
	ps.mu.Unlock()
}

// takeLocked runs the pending copy, under mu, if nobody has taken it.
func (ps *pagestore) takeLocked() {
	if ps.queued {
		ps.pending.run(ps)
		ps.pending, ps.queued = pageCopy{}, false
	}
}

func (c pageCopy) run(ps *pagestore) {
	if c.write {
		ps.writeAt(c.buf, c.off)
	} else {
		ps.readAt(c.buf, c.off)
	}
}

// ReadAt fills buf with the contents at off, after the copy in flight.
func (ps *pagestore) ReadAt(buf []byte, off int64) {
	ps.join()
	ps.readAt(buf, off)
}

func (ps *pagestore) readAt(buf []byte, off int64) {
	for len(buf) > 0 {
		po := int(off % pageBytes)
		n := min(pageBytes-po, len(buf))
		if page := ps.pages[off/pageBytes]; page != nil {
			copy(buf[:n], page[po:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		off += int64(n)
	}
}

// zeroPage is compared against, never written.
var zeroPage [pageBytes]byte

// WriteAt stores buf at off, after the copy in flight.  Zeros written to a
// never-written page leave it unmaterialized: they are what it already reads
// as.  A write that materializes a page lands in a spare page when there is
// one (newPage).
func (ps *pagestore) WriteAt(buf []byte, off int64) {
	ps.join()
	ps.writeAt(buf, off)
}

func (ps *pagestore) writeAt(buf []byte, off int64) {
	for len(buf) > 0 {
		pg := off / pageBytes
		po := int(off % pageBytes)
		n := min(pageBytes-po, len(buf))
		switch page := ps.pages[pg]; {
		case page != nil:
			copy(page[po:], buf[:n])
		case bytes.Equal(buf[:n], zeroPage[:n]):
			// What the page already reads as.
		default:
			ps.pages[pg] = newPage(buf[:n], po)
		}
		buf = buf[n:]
		off += int64(n)
	}
}

// newPage returns a page holding src at po and zeros everywhere else: a
// spare page, cleared first unless src fills it, or else a clone of a
// whole-page src, which Go need not zero first, or a zeroed page.
func newPage(src []byte, po int) []byte {
	page := sparePage()
	switch {
	case page == nil && len(src) == pageBytes:
		return bytes.Clone(src)
	case page == nil:
		page = make([]byte, pageBytes)
	case len(src) < pageBytes:
		clear(page)
	}
	copy(page[po:], src)
	return page
}

// PagesAllocated reports how many 64 KB pages have been materialized once
// the copy in flight has run.
func (ps *pagestore) PagesAllocated() int {
	ps.join()
	n := 0
	for _, page := range ps.pages {
		if page != nil {
			n++
		}
	}
	return n
}
