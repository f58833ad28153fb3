package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"raidii/internal/lfs"
	"raidii/internal/raid"
	"raidii/internal/sim"
)

// streamPattern is n deterministic bytes that differ with tag; no two 128 KB
// blocks of a file under 32 MB hold the same bytes.
func streamPattern(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i>>9) ^ byte(i)*3 ^ byte(i>>17)*5 ^ tag
	}
	return b
}

// TestHardwareReadLargerThanFreeDRAM: an 8 MB hardware read on a board whose
// cache leaves 6 MB of DRAM free completes and gives every byte back.  The
// issuer used to reserve every chunk before its first send, and only its
// sends give bytes back, so it parked for good once the DRAM ran out.
func TestHardwareReadLargerThanFreeDRAM(t *testing.T) {
	cfg := Fig8Config()
	cfg.CacheBytes = 26 << 20
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	free := b.XB.Buffers.Available()
	const size = 8 << 20
	if free >= size {
		t.Fatalf("%d bytes free: the read fits", free)
	}
	done := false
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		if err := b.HardwareRead(p, 0, size); err != nil {
			t.Error(err)
		}
		done = true
	})
	sys.Eng.Run()
	if !done {
		t.Fatalf("an 8 MB read with %d bytes free never finished (%d processes parked)", free, sys.Eng.Live())
	}
	if got := b.XB.Buffers.Available(); got != free {
		t.Fatalf("%d bytes free after the read, %d before", got, free)
	}
}

// TestHardwareReadSendsTheCallersBytes: a hardware read whose size is not a
// whole number of sectors reads the sectors that hold it, but the HIPPI
// carries only the bytes asked for, so it finishes before a read of the
// rounded size.
func TestHardwareReadSendsTheCallersBytes(t *testing.T) {
	cost := func(size int) time.Duration {
		sys, err := New(Fig8Config())
		if err != nil {
			t.Fatal(err)
		}
		b := sys.Boards[0]
		var d time.Duration
		sys.Eng.Spawn("t", func(p *sim.Proc) {
			if err := b.HardwareRead(p, 0, size); err != nil {
				t.Error(err)
			}
			d = p.Now().Sub(0)
		})
		sys.Eng.Run()
		return d
	}
	sec := Fig8Config().DiskSpec.SectorSize
	const whole = 1 << 20
	if odd, rounded := cost(whole+1), cost(whole+sec); odd >= rounded {
		t.Fatalf("a read of %d bytes took %v, one of %d bytes %v", whole+1, odd, whole+sec, rounded)
	}
}

// streamRig formats a Fig. 8 board on small disks and writes /s, size bytes
// of pattern tag 1.
func streamRig(t testing.TB, size int) (*System, *Board) {
	t.Helper()
	cfg := Fig8Config()
	cfg.DiskSpec.Cylinders = 40
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	sys.Eng.Spawn("setup", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			t.Fatal(err)
		}
		f, err := b.CreateFS(p, "/s")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.File.WriteAt(p, streamPattern(size, 1), 0); err != nil {
			t.Fatal(err)
		}
		if err := b.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
	})
	sys.Eng.Run()
	return sys, b
}

// TestLookAheadTrigger: a handle's first read and a read that does not
// continue the last one issue no window; a read that continues it issues
// the rest of the window after its own bytes, clamped to EOF, and the reads
// after it are served from that window, with the bytes the file has.
func TestLookAheadTrigger(t *testing.T) {
	const size = 5<<20 + 100<<10
	sys, b := streamRig(t, size)
	want := streamPattern(size, 1)
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		f, err := b.OpenFS(p, "/s")
		if err != nil {
			t.Fatal(err)
		}
		read := func(off int64, n int) []byte {
			t.Helper()
			got, err := b.FSRead(p, f, off, n)
			if err != nil {
				t.Fatal(err)
			}
			if hi := min(off+int64(n), size); !bytes.Equal(got, want[off:hi]) {
				t.Fatalf("read %d+%d: wrong bytes", off, n)
			}
			return got
		}
		window := func(what string, lo, hi int64) {
			t.Helper()
			w := f.win
			switch {
			case hi == 0 && w != nil:
				t.Fatalf("%s: a window [%d, %d)", what, w.lo, w.hi())
			case hi > 0 && (w == nil || w.lo != lo || w.hi() != hi):
				t.Fatalf("%s: window %+v, want [%d, %d)", what, w, lo, hi)
			}
		}
		const r = 512 << 10
		read(0, r)
		window("first read", 0, 0)
		read(2*r, r)
		window("a read that skips", 0, 0)
		read(3*r, r)
		window("a read that continues", 4*r, 3*r+windowBytes)
		read(4*r, r)
		window("a read the window serves", 5*r, 3*r+windowBytes)
		w := f.win
		if got := read(5*r, r); &got[0] != &w.buf[5*r-w.off] {
			t.Fatal("a read the window held was not served from it")
		}
		read(6*r, r)
		window("a read the window served last", 7*r, 7*r)
		read(7*r, r) // continues, window empty: the rest is clamped to EOF
		window("a continuing read near EOF", 8*r, size)
		read(8*r, r)
	})
	sys.Eng.Run()
	if sys.Eng.Live() != 0 {
		t.Fatalf("%d processes parked", sys.Eng.Live())
	}
}

// TestStreamStrandsNothing abandons handles in the middle of their windows,
// drops a window while its pieces are in flight by writing the file, fails
// a client-style stream in the middle of its send over the window that
// replaced it, runs an EtherRead, and
// fails a HardwareRead in the middle of its pieces by killing the array:
// once the engine is idle after each, every byte of board DRAM is back, no
// process is parked, and every stream buffer is on its free list, lent or
// in a handle's window (checkStreamBufs).  The dropped window comes back to
// its list only once its last piece has landed.
func TestStreamStrandsNothing(t *testing.T) {
	const size = 4 << 20
	sys, b := streamRig(t, size)
	free := b.XB.Buffers.Available()
	var handles []*FSFile // every handle the phases open
	open := func(p *sim.Proc) *FSFile {
		f, err := b.OpenFS(p, "/s")
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, f)
		return f
	}
	phase := func(what string, fn func(p *sim.Proc)) {
		t.Helper()
		sys.Eng.Spawn(what, fn)
		sys.Eng.Run()
		if live := sys.Eng.Live(); live != 0 {
			t.Fatalf("%s: %d processes parked once the engine is idle", what, live)
		}
		if got := b.XB.Buffers.Available(); got != free {
			t.Fatalf("%s: %d bytes of DRAM free, %d after assembly", what, got, free)
		}
		checkStreamBufs(t, what, b, handles)
	}
	const r = 256 << 10
	phase("abandoned windows", func(p *sim.Proc) {
		for h := 0; h < 3; h++ {
			f := open(p)
			for i := int64(0); i < 3; i++ {
				if _, err := b.FSRead(p, f, (int64(h)+i)*r, r); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	var dropped *window
	droppedInFlight := false
	phase("a window dropped in flight, then a send failed over the next one", func(p *sim.Proc) {
		f := open(p)
		for i := int64(0); i < 2; i++ {
			if _, err := b.FSRead(p, f, i*r, r); err != nil {
				t.Fatal(err)
			}
		}
		if dropped = f.win; dropped == nil {
			t.Fatal("no window to drop")
		}
		sys.Eng.Spawn("probe", func(q *sim.Proc) { // every ms until its pieces have landed
			for landing := -1; landing != 0; q.Wait(time.Millisecond) {
				landing = 0
				for _, pc := range dropped.pieces {
					if !pc.landed.Fired() {
						landing++
					}
				}
				if f.win != dropped && landing > 0 {
					if dropped.refs != landing {
						t.Errorf("the dropped window has %d pieces in flight and %d references", landing, dropped.refs)
					}
					droppedInFlight = true
				}
			}
		})
		if _, err := f.File.WriteAt(p, []byte{7}, 3*r-1); err != nil {
			t.Fatal(err)
		}
		got, err := b.FSRead(p, f, 2*r, r)
		if err != nil {
			t.Fatal(err)
		}
		if got[r-1] != 7 {
			t.Fatal("the read after a write was served from the window read before it")
		}
		// The failed send's read takes this window's pieces, still in flight.
		if w := f.win; w == nil || w.lo != 3*r {
			t.Fatalf("window %+v, want one from %d for the failed send to take", w, 3*r)
		}
		refused := errors.New("client went away")
		sent := 0
		if _, err := f.Stream(p, 0, 3<<20, func(*sim.Proc, int) error {
			if sent++; sent == 3 {
				return refused
			}
			return nil
		}); !errors.Is(err, refused) {
			t.Fatalf("stream: %v, want the send's error", err)
		}
	})
	if !droppedInFlight || dropped.refs != 0 {
		t.Fatalf("the window was dropped in flight: %v; it is still referenced %d times", droppedInFlight, dropped.refs)
	}
	phase("an EtherRead", func(p *sim.Proc) {
		if err := b.EtherRead(p, open(p), r, 3*r); err != nil {
			t.Fatal(err)
		}
	})
	phase("a HardwareRead on an array that dies under it", func(p *sim.Proc) {
		sys.Eng.Spawn("kill", func(q *sim.Proc) {
			q.Wait(30 * time.Millisecond)
			for i := 0; i < 2; i++ {
				if err := b.Array.FailDisk(i); err != nil {
					t.Error(err)
				}
			}
		})
		start := p.Now()
		if err := b.HardwareRead(p, 0, 4<<20); !errors.Is(err, raid.ErrArrayFailed) {
			t.Fatalf("hardware read on a dead array: %v, want ErrArrayFailed", err)
		}
		if p.Now().Sub(start) < 30*time.Millisecond {
			t.Fatal("the read failed before the array died")
		}
	})
	sys.Eng.Shutdown()
	if live := sys.Eng.Live(); live != 0 {
		t.Fatalf("%d processes live after Shutdown", live)
	}
}

// checkStreamBufs fails the test unless every stream buffer of b out of its
// lists is lent by the lease table or held as the window of one of handles,
// and each such window is referenced by exactly those: once the engine is
// idle, no piece lands in a window and no read copies out of one.
func checkStreamBufs(t *testing.T, what string, b *Board, handles []*FSFile) {
	t.Helper()
	refs := map[*window]int{}
	for _, f := range handles {
		if f.win != nil {
			refs[f.win]++
		}
	}
	held := 0
	for _, l := range b.bufs.leases {
		if l.w != nil {
			refs[l.w]++
		}
		if l.buf != nil && class(cap(l.buf)) > 0 {
			held++
		}
	}
	for w, n := range refs {
		if w.refs != n {
			t.Fatalf("%s: window [%d, %d) referenced %d times, by %d handles and leases", what, w.off, w.hi(), w.refs, n)
		}
		held++
	}
	if b.bufs.held != held {
		t.Fatalf("%s: %d stream buffers out of the lists, %d lent or in a handle's window", what, b.bufs.held, held)
	}
}

// TestFSReadLeaseOutlivesOtherReaders: an FSRead result stays valid until
// its process's next FSRead on the board, whatever other processes read
// meanwhile.  Two processes share one handle and a third reads another
// handle of the same board, sequentially, through its window; each holds
// every result across a wait in which the others read, then checks it
// against the file.  A lease kept per handle gives the first process's
// buffer back when the second reads, and the second's bytes land in it.
func TestFSReadLeaseOutlivesOtherReaders(t *testing.T) {
	const size = 4 << 20
	const r = 256 << 10
	sys, b := streamRig(t, size)
	want := streamPattern(size, 1)
	var shared, other *FSFile
	sys.Eng.Spawn("open", func(p *sim.Proc) {
		var err error
		if shared, err = b.OpenFS(p, "/s"); err != nil {
			t.Fatal(err)
		}
		if other, err = b.OpenFS(p, "/s"); err != nil {
			t.Fatal(err)
		}
	})
	sys.Eng.Run()
	checked := 0
	reader := func(name string, f *FSFile, start time.Duration, offs ...int64) {
		sys.Eng.Spawn(name, func(p *sim.Proc) {
			p.Wait(start)
			for _, off := range offs {
				got, err := b.FSRead(p, f, off, r)
				if err != nil {
					t.Error(err)
					return
				}
				p.Wait(300 * time.Millisecond) // the others read
				if !bytes.Equal(got, want[off:off+r]) {
					t.Errorf("%s: the result of a read at %d changed while it was held", name, off)
				}
				checked++
			}
		})
	}
	reader("a", shared, 0, 0, 4*r, 8*r, 12*r)
	reader("b", shared, 100*time.Millisecond, 2*r, 6*r, 10*r, 14*r)
	reader("c", other, 200*time.Millisecond, 0, r, 2*r, 3*r, 4*r, 5*r)
	sys.Eng.Run()
	if checked != 14 {
		t.Fatalf("%d results checked, want 14", checked)
	}
}

// TestFSReadEvictedLeaseIsNeverRecycled: when more processes hold FSRead
// results than the board has lease slots, a new lease evicts an old one, and
// the evicted result's buffer is forgotten, never recycled, whether it is
// its own buffer or a window's.  p0 holds a slice of its handle's window and
// p1 a buffer of its own; eight more readers evict both; then q reads on
// p0's handle past the window, which drops it and issues one of the same
// size, and reads a piece of p1's size.  p0 and p1 still find their bytes.
func TestFSReadEvictedLeaseIsNeverRecycled(t *testing.T) {
	const size = 5 << 20
	const r = 256 << 10
	sys, b := streamRig(t, size)
	want := streamPattern(size, 1)
	var f0 *FSFile
	sys.Eng.Spawn("open", func(p *sim.Proc) {
		var err error
		if f0, err = b.OpenFS(p, "/s"); err != nil {
			t.Fatal(err)
		}
	})
	sys.Eng.Run()
	read := func(p *sim.Proc, f *FSFile, off int64) []byte {
		t.Helper()
		got, err := b.FSRead(p, f, off, r)
		if err != nil || !bytes.Equal(got, want[off:off+r]) {
			t.Fatalf("read at %d: %v, or wrong bytes", off, err)
		}
		return got
	}
	holder := func(name string, start time.Duration, reads func(p *sim.Proc) (int64, []byte)) {
		sys.Eng.Spawn(name, func(p *sim.Proc) {
			p.Wait(start)
			off, got := reads(p)
			p.Wait(3*time.Second - start)
			if !bytes.Equal(got, want[off:off+r]) {
				t.Errorf("%s: the result of its read at %d changed while it was held", name, off)
			}
		})
	}
	holder("p0", 0, func(p *sim.Proc) (int64, []byte) {
		read(p, f0, 0)
		read(p, f0, r) // continues: the window [2r, 9r)
		return 2 * r, read(p, f0, 2*r)
	})
	for i := 1; i <= leaseSlots; i++ {
		holder(fmt.Sprint("p", i), time.Duration(i)*100*time.Millisecond, func(p *sim.Proc) (int64, []byte) {
			f, err := b.OpenFS(p, "/s")
			if err != nil {
				t.Fatal(err)
			}
			off := int64(i) * 2 * r
			return off, read(p, f, off)
		})
	}
	sys.Eng.Spawn("q", func(p *sim.Proc) {
		p.Wait(2 * time.Second)
		for off := int64(3 * r); off <= 9*r; off += r {
			read(p, f0, off) // the last drops p0's window for [10r, 17r)
		}
	})
	sys.Eng.Run()
}

// TestFSReadRecycledBuffersHoldNoStaleBytes: reads through warm buffers
// return the file's bytes and nothing a buffer held before.  The file is
// read whole through windows, then truncated and rewritten shorter with a
// hole at its start; every read after that — on the warm handle and on a
// fresh one, sequential through windows and across the new EOF — returns
// zeros for the hole, the new bytes after it and nothing past the end.
func TestFSReadRecycledBuffersHoldNoStaleBytes(t *testing.T) {
	const size = 3 << 20
	sys, b := streamRig(t, size)
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		read := func(f *FSFile, off int64, n int, file []byte) {
			t.Helper()
			got, err := b.FSRead(p, f, off, n)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := min(off, int64(len(file))), min(off+int64(n), int64(len(file)))
			if !bytes.Equal(got, file[lo:hi]) {
				t.Fatalf("read %d+%d: %d bytes, not the file's %d there", off, n, len(got), hi-lo)
			}
		}
		f, err := b.OpenFS(p, "/s")
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < size; off += 512 << 10 {
			read(f, off, 512<<10, streamPattern(size, 1))
		}
		lf := f.File.(*lfs.File)
		if err := lf.Truncate(p); err != nil {
			t.Fatal(err)
		}
		const hole, tail = 700 << 10, 300 << 10
		if _, err := lf.WriteAt(p, streamPattern(tail, 2), hole); err != nil {
			t.Fatal(err)
		}
		file := append(make([]byte, hole), streamPattern(tail, 2)...)
		g, err := b.OpenFS(p, "/s")
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []*FSFile{f, g} {
			for off := int64(0); off < 2<<20; off += 128 << 10 {
				read(h, off, 128<<10, file)
			}
			read(h, 100<<10, 1<<20, file)
		}
	})
	sys.Eng.Run()
	if live := sys.Eng.Live(); live != 0 {
		t.Fatalf("%d processes parked", live)
	}
}

// seqReader starts a process on b that reads /s, size bytes, in FSReads of
// r bytes on one handle, wrapping at EOF, one read at the start of each
// simulated second; step runs the engine through the next second's read.
func seqReader(tb testing.TB, sys *System, b *Board, size, r int) (step func()) {
	want := streamPattern(size, 1)
	sys.Eng.Spawn("reader", func(p *sim.Proc) {
		f, err := b.OpenFS(p, "/s")
		if err != nil {
			tb.Error(err)
			return
		}
		for off := int64(0); ; off = (off + int64(r)) % int64(size) {
			got, err := b.FSRead(p, f, off, r)
			if err != nil || !bytes.Equal(got, want[off:off+int64(len(got))]) {
				tb.Errorf("read at %d: %v, or wrong bytes", off, err)
				return
			}
			p.WaitUntil(p.Now() + sim.Time(time.Second) - p.Now()%sim.Time(time.Second))
		}
	})
	next := sys.Eng.Now()
	return func() {
		next += sim.Time(time.Second)
		sys.Eng.RunUntil(next)
	}
}

// TestFSReadAllocs: warm sequential 512 KB FSReads on one handle allocate
// no result-sized buffer.  A read the window holds is lent the window's
// bytes, and the reads that open a window take their result and the
// window's buffer from the board's lists; each read used to allocate its
// result or the next window.
func TestFSReadAllocs(t *testing.T) {
	const size, r = 4 << 20, 512 << 10
	sys, b := streamRig(t, size)
	step := seqReader(t, sys, b, size, r)
	for i := 0; i < 2*size/r; i++ { // warm: two passes over the file
		step()
	}
	const reads = 3 * size / r
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	sys.Eng.Shutdown()
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per >= r/8 {
		t.Fatalf("a warm %d KB read allocates %d bytes", r>>10, per)
	}
}

// BenchmarkFSReadSeq: one warm sequential 512 KB FSRead per op, on one
// handle of a Fig. 8 board, checked against the file.
func BenchmarkFSReadSeq(bm *testing.B) {
	const size, r = 4 << 20, 512 << 10
	sys, b := streamRig(bm, size)
	step := seqReader(bm, sys, b, size, r)
	for i := 0; i < size/r; i++ {
		step()
	}
	bm.SetBytes(r)
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		step()
	}
	bm.StopTimer()
	sys.Eng.Shutdown()
}

// TestStreamCoherenceProperty runs seeded interleavings of sequential
// FSReads with writes, truncates, cleaner passes and, last, the file's
// removal: one reader on one handle, two on a second handle of the same
// file.  A mutation waits for every read in progress, and no read starts
// during one, but the look-ahead pieces in flight are left alone.  Each
// FSRead must equal a fresh lfs ReadAt taken just after it, and once the
// file is removed it must fail with lfs.ErrNotExist.
func TestStreamCoherenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { streamCoherence(t, seed) })
	}
}

func streamCoherence(t *testing.T, seed int64) {
	const size = 3 << 20
	sys, b := streamRig(t, size)
	e := sys.Eng
	rng := rand.New(rand.NewSource(seed))
	var (
		active   int        // reads in progress
		mutating bool       // a mutation in progress
		idle     *sim.Event // signalled when active drops to 0
		resume   *sim.Event // signalled when a mutation ends
		removed  bool
		stop     bool
		checked  int
	)
	begin := func(p *sim.Proc) {
		for mutating {
			resume.Wait(p)
		}
		active++
	}
	end := func() {
		if active--; active == 0 && idle != nil {
			idle.Signal()
			idle = nil
		}
	}
	reader := func(name string, f *FSFile, start int64, sizes []int) {
		rng := rand.New(rand.NewSource(seed*31 + start))
		e.Spawn(name, func(p *sim.Proc) {
			off := start
			for !stop {
				begin(p)
				n := sizes[rng.Intn(len(sizes))]
				got, err := b.FSRead(p, f, off, n)
				switch {
				case removed:
					if !errors.Is(err, lfs.ErrNotExist) {
						t.Errorf("%s: read %d+%d after the remove: %v", name, off, n, err)
					}
				case err != nil:
					t.Errorf("%s: read %d+%d: %v", name, off, n, err)
				default:
					want, err := f.File.(*lfs.File).ReadAt(p, off, n)
					if err != nil {
						t.Errorf("%s: ReadAt %d+%d: %v", name, off, n, err)
					} else if !bytes.Equal(got, want) {
						t.Errorf("%s: read %d+%d: %d bytes, the file has %d there and they differ", name, off, n, len(got), len(want))
					}
					checked++
				}
				end()
				if removed {
					return
				}
				if off += int64(len(got)); len(got) < n {
					off = 0 // wrap at EOF
				}
			}
		})
	}
	var handles [2]*FSFile
	var lf *lfs.File // the mutator's handle
	e.Spawn("open", func(p *sim.Proc) {
		var err error
		if lf, err = b.FS.Open(p, "/s"); err != nil {
			t.Fatal(err)
		}
		for i := range handles {
			f, err := b.OpenFS(p, "/s")
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = f
		}
	})
	e.Run()
	chunks := []int{256 << 10, 512 << 10}
	reader("r0", handles[0], 0, append(chunks, 100<<10))
	reader("r1", handles[1], 0, chunks)
	reader("r2", handles[1], 1<<20, chunks)
	e.Spawn("mutator", func(p *sim.Proc) {
		for op := 0; op < 14; op++ {
			p.Wait(sim.Duration(rng.Intn(150e6)))
			mutating, resume = true, sim.NewEvent(e)
			for active > 0 {
				idle = sim.NewEvent(e)
				idle.Wait(p)
			}
			var err error
			switch k := rng.Intn(4); {
			case op == 13:
				err = b.FS.Remove(p, "/s")
				removed = true
			case k == 0:
				err = lf.Truncate(p)
			case k == 1:
				_, err = b.FS.Clean(p, b.FS.FreeSegments()+1)
			case k == 2: // the file anew
				_, err = lf.WriteAt(p, streamPattern(1<<20+rng.Intn(2<<20), byte(op)), 0)
			default:
				off := rng.Int63n(size)
				_, err = lf.WriteAt(p, streamPattern(1+rng.Intn(400<<10), byte(op)), off)
			}
			if err != nil && !errors.Is(err, lfs.ErrNoSpace) {
				t.Errorf("mutation %d: %v", op, err)
			}
			mutating = false
			resume.Signal()
		}
		stop = true
	})
	e.Run()
	if checked < 20 {
		t.Fatalf("only %d reads checked", checked)
	}
	if live := e.Live(); live != 0 {
		t.Fatalf("%d processes parked", live)
	}
}

// TestEtherReadPastEOF: an EtherRead past the end of a file costs what a
// read of the bytes the file holds costs.  Its pieces clamp at EOF, so no
// byte the file lacks crosses the VME link, the host or the Ethernet.
func TestEtherReadPastEOF(t *testing.T) {
	const size = 64 << 10
	cost := func(n int) time.Duration {
		sys, b := streamRig(t, size)
		var d time.Duration
		sys.Eng.Spawn("t", func(p *sim.Proc) {
			f, err := b.OpenFS(p, "/s")
			if err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			if err := b.EtherRead(p, f, 0, n); err != nil {
				t.Fatal(err)
			}
			d = p.Now().Sub(start)
		})
		sys.Eng.Run()
		return d
	}
	if whole, past := cost(size), cost(1<<20); past != whole {
		t.Fatalf("an EtherRead of 1 MB of a %d-byte file took %v, one of the file's bytes %v", size, past, whole)
	}
}

// TestEtherReadTakesNoWindow: the Ethernet path neither takes nor opens a
// handle's window.  An EtherRead on a handle whose window holds its bytes
// costs what it costs on a fresh handle of a board with the same history,
// each byte's Ethernet time included, and the FSRead after it takes the
// window.
func TestEtherReadTakesNoWindow(t *testing.T) {
	const size = 4 << 20
	const r = 256 << 10
	cost := func(fresh bool) time.Duration {
		sys, b := streamRig(t, size)
		var d time.Duration
		sys.Eng.Spawn("t", func(p *sim.Proc) {
			f, err := b.OpenFS(p, "/s")
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 2; i++ { // the second opens the window
				if _, err := b.FSRead(p, f, i*r, r); err != nil {
					t.Fatal(err)
				}
			}
			p.Wait(time.Second) // the window lands
			w := f.win
			if w == nil || w.lo != 2*r {
				t.Fatalf("window %+v, want one from %d", w, 2*r)
			}
			g := f
			if fresh {
				if g, err = b.OpenFS(p, "/s"); err != nil {
					t.Fatal(err)
				}
			}
			start := p.Now()
			if err := b.EtherRead(p, g, 2*r, r); err != nil {
				t.Fatal(err)
			}
			d = p.Now().Sub(start)
			if f.win != w || w.lo != 2*r {
				t.Fatal("the EtherRead took from the window or replaced it")
			}
			got, err := b.FSRead(p, f, 2*r, r)
			if err != nil {
				t.Fatal(err)
			}
			if &got[0] != &w.buf[2*r-w.off] {
				t.Fatal("the FSRead after the EtherRead was not served from the window")
			}
		})
		sys.Eng.Run()
		return d
	}
	on, fresh := cost(false), cost(true)
	if on != fresh {
		t.Fatalf("an EtherRead the window holds took %v, on a fresh handle %v", on, fresh)
	}
	if wire := time.Duration(float64(r) / 1.25e6 * float64(time.Second)); on < wire {
		t.Fatalf("an EtherRead of %d bytes took %v, under their Ethernet time %v", r, on, wire)
	}
}
