package disk

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"raidii/internal/sim"
)

// TestPagestoreRanges drives the indexed page table through the cases its
// loop has to get right: holes, ranges that straddle pages, a hole between
// two written pages, and the final partial page of an odd-sized store.
func TestPagestoreRanges(t *testing.T) {
	const size = 3*pageBytes + 5000 // the fourth page is partial
	fill := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)*5 + seed
		}
		return b
	}
	for _, tc := range []struct {
		name      string
		writes    []int64 // offsets; each write is 3000 bytes
		readOff   int64
		readLen   int
		wantPages int
	}{
		{name: "all hole", readOff: 100, readLen: 2 * pageBytes, wantPages: 0},
		{name: "inside one page", writes: []int64{500}, readOff: 0, readLen: 5000, wantPages: 1},
		{name: "straddles two pages", writes: []int64{pageBytes - 1500}, readOff: pageBytes - 2000, readLen: 4000, wantPages: 2},
		{name: "hole between written pages", writes: []int64{100, 2*pageBytes + 100}, readOff: 0, readLen: 3 * pageBytes, wantPages: 2},
		{name: "final partial page", writes: []int64{size - 3000}, readOff: size - 4000, readLen: 4000, wantPages: 1},
		{name: "same page twice", writes: []int64{0, 3000}, readOff: 0, readLen: 8000, wantPages: 1},
		{name: "whole store", writes: []int64{pageBytes - 10}, readOff: 0, readLen: size, wantPages: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := newPagestore(size)
			shadow := make([]byte, size)
			for i, off := range tc.writes {
				data := fill(3000, byte(i+1))
				ps.WriteAt(data, off)
				copy(shadow[off:], data)
			}
			if got := ps.PagesAllocated(); got != tc.wantPages {
				t.Errorf("PagesAllocated = %d, want %d", got, tc.wantPages)
			}
			got := bytes.Repeat([]byte{0xcc}, tc.readLen) // dirty: holes must be cleared
			ps.ReadAt(got, tc.readOff)
			if !bytes.Equal(got, shadow[tc.readOff:tc.readOff+int64(tc.readLen)]) {
				t.Error("ReadAt differs from the shadow copy")
			}
		})
	}
}

// TestPagestoreZeroWrites: zeros written to a never-written page leave it
// unmaterialized, and zeros written over a materialized page replace what it
// held; either way the store reads back what was written.
func TestPagestoreZeroWrites(t *testing.T) {
	ps := newPagestore(4 * pageBytes)
	shadow := make([]byte, 4*pageBytes)
	write := func(data []byte, off int64) {
		ps.WriteAt(data, off)
		copy(shadow[off:], data)
	}
	write(make([]byte, 2*pageBytes), 100) // zeros over three holes
	if got := ps.PagesAllocated(); got != 0 {
		t.Fatalf("zeros over holes materialized %d pages", got)
	}
	write(bytes.Repeat([]byte{0x5a}, 3000), pageBytes+10)
	write(make([]byte, pageBytes), pageBytes/2) // zeros across a hole and the written page
	if got := ps.PagesAllocated(); got != 1 {
		t.Fatalf("PagesAllocated = %d, want 1", got)
	}
	got := bytes.Repeat([]byte{0xcc}, len(shadow))
	ps.ReadAt(got, 0)
	if !bytes.Equal(got, shadow) {
		t.Fatal("ReadAt differs from the shadow copy")
	}
}

// TestPagestoreFreshPages covers the three ways a write meets a page never
// written before: it fills the page, it fills it with zeros, or it covers
// part of it.
func TestPagestoreFreshPages(t *testing.T) {
	for _, tc := range []struct {
		name      string
		data      []byte
		off       int64
		wantPages int
	}{
		{name: "full page", data: bytes.Repeat([]byte{0x5a, 0xa5, 0x3c}, pageBytes/3+1)[:pageBytes], off: pageBytes, wantPages: 1},
		{name: "all-zero full page", data: make([]byte, pageBytes), off: pageBytes, wantPages: 0},
		{name: "partial page", data: bytes.Repeat([]byte{0x77}, 3000), off: pageBytes + 5000, wantPages: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := newPagestore(3 * pageBytes)
			shadow := make([]byte, 3*pageBytes)
			data := bytes.Clone(tc.data)
			ps.WriteAt(data, tc.off)
			copy(shadow[tc.off:], data)
			clear(data) // the store keeps no reference to the caller's bytes
			if got := ps.PagesAllocated(); got != tc.wantPages {
				t.Errorf("PagesAllocated = %d, want %d", got, tc.wantPages)
			}
			got := bytes.Repeat([]byte{0xcc}, len(shadow)) // dirty: the rest must read zero
			ps.ReadAt(got, 0)
			if !bytes.Equal(got, shadow) {
				t.Error("ReadAt differs from the shadow copy")
			}
		})
	}
}

func TestPagestoreReadAtZeroAlloc(t *testing.T) {
	ps := newPagestore(8 * pageBytes)
	ps.WriteAt(bytes.Repeat([]byte{0x5a}, 3*pageBytes), pageBytes/2)
	buf := make([]byte, 5*pageBytes) // written pages, a straddle and holes
	if n := testing.AllocsPerRun(50, func() { ps.ReadAt(buf, 100) }); n != 0 {
		t.Fatalf("ReadAt allocates %v times per call", n)
	}
}

// TestReadDestinationIsNotRetained: the caller owns the buffer a read
// filled; scribbling on it afterwards never reaches the store.
func TestReadDestinationIsNotRetained(t *testing.T) {
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	want := bytes.Repeat([]byte{0x42}, 4*d.SectorSize())
	d.WriteData(10, want)
	e.Spawn("t", func(p *sim.Proc) {
		dst := make([]byte, len(want))
		if err := d.ReadInto(p, 10, dst, nil); err != nil {
			t.Error(err)
		}
		clear(dst)
		got, err := d.Read(p, 10, 4, nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("after scribbling on a ReadInto destination the disk returns different bytes (err=%v)", err)
		}
		clear(got)
	})
	e.Run()
	if !bytes.Equal(d.ReadData(10, 4), want) {
		t.Fatal("after scribbling on a Read result the disk returns different bytes")
	}
}

// spareCount is how many pages the spare list holds.
func spareCount() int {
	spares.mu.Lock()
	defer spares.mu.Unlock()
	n := 0
	for _, t := range spares.tables {
		n += len(t)
	}
	return n
}

// dropStore fills a store of n pages with 0xA5 and lets it go.
func dropStore(n int) {
	ps := newPagestore(int64(n) * pageBytes)
	ps.WriteAt(bytes.Repeat([]byte{0xa5}, n*pageBytes), 0)
}

// primeSpares drops a store of n written pages and collects until the spare
// list holds at least n pages, then fills every spare page with 0xA5, so a
// page taken from the list holds bytes its taker must overwrite or clear.
// It returns the pages it filled: the cleanups of earlier tests' stores may
// still add others.
func primeSpares(t *testing.T, n int) map[*byte]bool {
	t.Helper()
	dropStore(n)
	deadline := time.Now().Add(10 * time.Second)
	for spareCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("after 10 s of collections the spare list holds %d pages, want %d", spareCount(), n)
		}
		runtime.GC()
	}
	poisoned := make(map[*byte]bool)
	spares.mu.Lock()
	for _, tbl := range spares.tables {
		for _, page := range tbl {
			for i := range page {
				page[i] = 0xa5
			}
			poisoned[&page[0]] = true
		}
	}
	spares.mu.Unlock()
	return poisoned
}

// TestRecycledPageHoldsNoStaleBytes: a page that a dead store wrote reads,
// in the store that takes it, as only what that store wrote.
func TestRecycledPageHoldsNoStaleBytes(t *testing.T) {
	sector := bytes.Repeat([]byte{0x3c}, 512)
	var ps *pagestore
	for attempt := 0; ; attempt++ {
		poisoned := primeSpares(t, 4)
		ps = newPagestore(2 * pageBytes)
		ps.WriteAt(sector, pageBytes+pageBytes/2)
		if poisoned[&ps.pages[1][0]] {
			break
		}
		// A cleanup added a page to the list after it was filled.
		if attempt == 10 {
			t.Fatal("a partial write to a fresh page never took a spare page")
		}
	}
	want := make([]byte, pageBytes)
	copy(want[pageBytes/2:], sector)
	got := make([]byte, pageBytes)
	ps.ReadAt(got, pageBytes)
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("page around a one-sector write reads %#x at byte %d, want %#x", got[i], i, want[i])
	}
	whole := bytes.Repeat([]byte{0x5a, 0xc3, 0x17}, pageBytes/3+1)[:pageBytes]
	ps.WriteAt(whole, 0)
	ps.ReadAt(got, 0)
	if !bytes.Equal(got, whole) {
		t.Fatal("a whole-page write to a recycled page does not read back")
	}
}

// TestReachableStoreKeepsItsPages: collections while a store is reachable
// leave its bytes alone and never put its pages on the spare list.
func TestReachableStoreKeepsItsPages(t *testing.T) {
	const n = 4
	keep := newPagestore(n * pageBytes)
	want := bytes.Repeat([]byte{0x69, 0x96, 0x0f}, n*pageBytes/3+1)[:n*pageBytes]
	keep.WriteAt(want, 0)
	own := make(map[*byte]bool)
	for _, page := range keep.pages {
		own[&page[0]] = true
	}
	primeSpares(t, n)
	for range 3 {
		runtime.GC()
	}
	spares.mu.Lock()
	for _, tbl := range spares.tables {
		for _, page := range tbl {
			if own[&page[0]] {
				t.Error("a page of a reachable store is on the spare list")
			}
		}
	}
	spares.mu.Unlock()
	got := make([]byte, len(want))
	keep.ReadAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Error("a reachable store's bytes changed across collections")
	}
	runtime.KeepAlive(keep)
}

// TestSpareListUnderConcurrentStores: stores on several goroutines take
// spare pages while collections hand them dead stores' pages.  A page that
// two live stores held at once would show up as the other store's bytes,
// or, under -race, as a race between their writes.
func TestSpareListUnderConcurrentStores(t *testing.T) {
	const workers, rounds, n = 4, 20, 8
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]byte, n*pageBytes)
			for r := range rounds {
				want := bytes.Repeat([]byte{byte(w*rounds + r + 1)}, n*pageBytes)
				ps := newPagestore(n * pageBytes)
				ps.WriteAt(want[:pageBytes/2], pageBytes/4) // a partial write first
				ps.WriteAt(want, 0)
				if r%5 == 0 {
					runtime.GC()
				}
				ps.ReadAt(got, 0)
				if !bytes.Equal(got, want) {
					t.Errorf("worker %d round %d reads bytes it did not write", w, r)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFreshPageWriteAllocs: with spare pages on the list, a whole-page
// write to a never-written page takes one and allocates nothing.
func TestFreshPageWriteAllocs(t *testing.T) {
	const runs = 20
	primeSpares(t, runs+1)
	ps := newPagestore(pageBytes)
	data := bytes.Repeat([]byte{0x5a}, pageBytes)
	if n := testing.AllocsPerRun(runs, func() {
		ps.pages[0] = nil // never written, as far as the store knows
		ps.WriteAt(data, 0)
	}); n != 0 {
		t.Fatalf("a whole-page write to a fresh page allocates %v times", n)
	}
}

func BenchmarkPagestoreReadAt(b *testing.B) {
	const span = 64 * pageBytes
	ps := newPagestore(span)
	ps.WriteAt(bytes.Repeat([]byte{0x5a}, span), 0)
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		// Sector-aligned, page-straddling, walking the store.
		ps.ReadAt(buf, int64(i%63)*pageBytes+512)
	}
}

func BenchmarkPagestoreWriteAt(b *testing.B) {
	const span = 64 * pageBytes
	data := bytes.Repeat([]byte{0x5a}, pageBytes)
	b.Run("overwrite", func(b *testing.B) {
		ps := newPagestore(span)
		ps.WriteAt(bytes.Repeat([]byte{0xa5}, span), 0)
		b.SetBytes(pageBytes)
		for i := 0; i < b.N; i++ {
			ps.WriteAt(data, int64(i%64)*pageBytes)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		ps := newPagestore(span)
		b.SetBytes(pageBytes)
		for i := 0; i < b.N; i++ {
			pg := i % 64
			ps.pages[pg] = nil // never written, as far as the store knows
			ps.WriteAt(data, int64(pg)*pageBytes)
		}
	})
	// recycled is fresh with a spare page on the list each time: the page
	// the loop takes out goes back as the cleanup of a dead store would put
	// it.  fresh drops its pages to the collector, so past the list's first
	// few pages it clones every time.
	b.Run("recycled", func(b *testing.B) {
		ps := newPagestore(span)
		table := make([][]byte, 1)
		b.SetBytes(pageBytes)
		for i := 0; i < b.N; i++ {
			pg := i % 64
			if page := ps.pages[pg]; page != nil {
				table[0], ps.pages[pg] = page, nil
				releasePages(table)
			}
			ps.WriteAt(data, int64(pg)*pageBytes)
		}
	})
}
