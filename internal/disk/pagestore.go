package disk

import "bytes"

// pagestore holds the disk's contents sparsely: 64 KB pages are allocated
// only when written, so a simulation can address tens of gigabytes of array
// capacity while touching far less host memory.  Unwritten bytes read as
// zero, matching a freshly-formatted drive.  The page table is a slice
// sized at construction (24 bytes per 64 KB of capacity), so finding a page
// is an index, not a hash.
type pagestore struct {
	size  int64
	pages [][]byte // nil = never written
}

const pageBytes = 64 * 1024

func newPagestore(size int64) *pagestore {
	return &pagestore{size: size, pages: make([][]byte, (size+pageBytes-1)/pageBytes)}
}

// ReadAt fills buf with the contents at off.
func (ps *pagestore) ReadAt(buf []byte, off int64) {
	if off < 0 || off+int64(len(buf)) > ps.size {
		//lint:allow simpanic unreachable: Disk.checkRange bounds every access before it reaches the store
		panic("disk: read out of range")
	}
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

// WriteAt stores buf at off.  Zeros written to a never-written page leave it
// unmaterialized: they are what it already reads as.  A write that fills a
// never-written page whole becomes the page as a clone, which Go need not
// zero first; a partial one lands in a zeroed page.
func (ps *pagestore) WriteAt(buf []byte, off int64) {
	if off < 0 || off+int64(len(buf)) > ps.size {
		//lint:allow simpanic unreachable: Disk.checkRange bounds every access before it reaches the store
		panic("disk: write out of range")
	}
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

// PagesAllocated reports how many 64 KB pages have been materialized.
func (ps *pagestore) PagesAllocated() int {
	n := 0
	for _, page := range ps.pages {
		if page != nil {
			n++
		}
	}
	return n
}
