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
// A command's copy of a page or more runs beside the engine (start, finish):
// on a host worker goroutine, between the command's actuator grant and its
// return, while the engine dispatches other events.  Copies run one at a
// time, in the order they were started, so every copy sees the store as
// every copy started before it left it.  The zero-time methods (ReadAt,
// WriteAt, PagesAllocated) and a copy smaller than a page run on the
// caller's thread, after every copy started before them.
type pagestore struct {
	size  int64
	pages [][]byte // nil = never written

	mu      sync.Mutex
	idle    sync.Cond  // signalled, under mu, when a copy ends
	queue   []pageCopy // started, not yet taken: queue[head:]
	head    int
	started uint64 // copies started; a copy's ticket is its number
	done    uint64 // copies finished
	running bool   // a copy is running, off mu
	worker  bool   // the worker goroutine is alive
	work    func() // the worker's body, made once: a go statement of it allocates nothing
}

// pageCopy is one command's copy: buf into the store at off, or out of it.
type pageCopy struct {
	buf   []byte
	off   int64
	write bool
}

const pageBytes = 64 * 1024

func newPagestore(size int64) *pagestore {
	ps := &pagestore{size: size, pages: make([][]byte, (size+pageBytes-1)/pageBytes)}
	ps.idle.L = &ps.mu
	ps.work = ps.drain
	return ps
}

// start begins a command's copy of buf at off, into the store if write,
// else out of it, and returns the ticket finish waits on.  A copy of a page
// or more goes to the worker; handing a smaller one over would cost more
// than the copy, so it runs here, after the copies started before it, and
// its ticket is 0.  buf belongs to the store until finish returns.
func (ps *pagestore) start(buf []byte, off int64, write bool) uint64 {
	ps.checkRange(buf, off)
	if len(buf) < pageBytes {
		ps.joinAll()
		pageCopy{buf, off, write}.run(ps)
		return 0
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.queue = append(ps.queue, pageCopy{buf, off, write})
	ps.started++
	if !ps.worker {
		ps.worker = true
		//lint:allow rawgo copies bytes into and out of this drive's own pages, touches no simulated state, and every copy is joined (finish) before its command returns
		go ps.work()
	}
	return ps.started
}

// finish returns once copy ticket (from start) has run.
func (ps *pagestore) finish(ticket uint64) {
	if ticket == 0 {
		return
	}
	ps.mu.Lock()
	ps.joinLocked(ticket)
	ps.mu.Unlock()
}

// joinLocked returns once copy ticket and every copy before it have run.  It
// helps rather than sleeps: a copy nobody has taken yet it runs itself, in
// order, and it waits only while one is running.  So a join never waits on
// a worker that has not been scheduled, and one P is enough.
func (ps *pagestore) joinLocked(ticket uint64) {
	for ps.done < ticket {
		if ps.running {
			ps.idle.Wait()
		} else {
			ps.runNextLocked()
		}
	}
}

// drain is the worker: it runs copies until none is left to take, and exits.
func (ps *pagestore) drain() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for ps.head < len(ps.queue) {
		if ps.running {
			ps.idle.Wait()
		} else {
			ps.runNextLocked()
		}
	}
	ps.worker = false
}

// runNextLocked takes the oldest queued copy and runs it with mu released.
func (ps *pagestore) runNextLocked() {
	c := ps.queue[ps.head]
	ps.queue[ps.head] = pageCopy{}
	if ps.head++; ps.head == len(ps.queue) {
		ps.queue, ps.head = ps.queue[:0], 0
	}
	ps.running = true
	ps.mu.Unlock()
	c.run(ps)
	ps.mu.Lock()
	ps.running = false
	ps.done++
	ps.idle.Broadcast()
}

func (c pageCopy) run(ps *pagestore) {
	if c.write {
		ps.writeAt(c.buf, c.off)
	} else {
		ps.readAt(c.buf, c.off)
	}
}

// joinAll returns once every copy started so far has run.
func (ps *pagestore) joinAll() {
	ps.mu.Lock()
	ps.joinLocked(ps.started)
	ps.mu.Unlock()
}

func (ps *pagestore) checkRange(buf []byte, off int64) {
	if off < 0 || off+int64(len(buf)) > ps.size {
		//lint:allow simpanic unreachable: Disk.checkRange bounds every access before it reaches the store
		panic("disk: access out of range")
	}
}

// ReadAt fills buf with the contents at off, after every copy started.
func (ps *pagestore) ReadAt(buf []byte, off int64) {
	ps.checkRange(buf, off)
	ps.joinAll()
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

// WriteAt stores buf at off, after every copy started.  Zeros written to a
// never-written page leave it unmaterialized: they are what it already reads
// as.  A write that fills a never-written page whole becomes the page as a
// clone, which Go need not zero first; a partial one lands in a zeroed page.
func (ps *pagestore) WriteAt(buf []byte, off int64) {
	ps.checkRange(buf, off)
	ps.joinAll()
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
// every copy started has run.
func (ps *pagestore) PagesAllocated() int {
	ps.joinAll()
	n := 0
	for _, page := range ps.pages {
		if page != nil {
			n++
		}
	}
	return n
}
