package disk

import (
	"bytes"
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
	return ps
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
// as.  A write that fills a never-written page whole becomes the page as a
// clone, which Go need not zero first; a partial one lands in a zeroed page.
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
		case n == pageBytes:
			ps.pages[pg] = bytes.Clone(buf[:n])
		default:
			page = make([]byte, pageBytes)
			copy(page[po:], buf[:n])
			ps.pages[pg] = page
		}
		buf = buf[n:]
		off += int64(n)
	}
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
