package disk

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

func TestSpecCapacity(t *testing.T) {
	s := IBM0661()
	if c := s.Capacity(); c < 300e6 || c > 350e6 {
		t.Fatalf("IBM 0661 capacity = %d, want ~320 MB", c)
	}
	w := WrenIV()
	if c := w.Capacity(); c < 300e6 || c > 360e6 {
		t.Fatalf("Wren IV capacity = %d, want ~330 MB", c)
	}
}

func TestMediaRates(t *testing.T) {
	// The paper: a single RAID-I (Wren IV) disk sustains 1.3 MB/s; Fig. 7
	// implies a single IBM 0661 streams roughly 1.5-1.8 MB/s.
	if r := WrenIV().MediaRate() / 1e6; r < 1.2 || r > 1.6 {
		t.Fatalf("Wren IV media rate = %.2f MB/s, want ~1.3-1.5", r)
	}
	if r := IBM0661().MediaRate() / 1e6; r < 1.5 || r > 2.0 {
		t.Fatalf("IBM 0661 media rate = %.2f MB/s, want ~1.5-2.0", r)
	}
}

func TestSeekCurveCalibrationPoints(t *testing.T) {
	for _, spec := range []Spec{IBM0661(), WrenIV(), ParallelTransfer()} {
		c := newSeekCurve(spec)
		approx := func(got, want time.Duration) bool {
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			return diff < 100*time.Microsecond
		}
		if got := c.time(1); !approx(got, spec.SeekTrackToTrack) {
			t.Errorf("%s: seek(1) = %v, want %v", spec.Name, got, spec.SeekTrackToTrack)
		}
		if got := c.time(spec.Cylinders / 3); !approx(got, spec.SeekAverage) {
			t.Errorf("%s: seek(avg) = %v, want %v", spec.Name, got, spec.SeekAverage)
		}
		if got := c.time(spec.Cylinders - 1); !approx(got, spec.SeekMax) {
			t.Errorf("%s: seek(max) = %v, want %v", spec.Name, got, spec.SeekMax)
		}
	}
}

func TestSeekCurveMonotone(t *testing.T) {
	for _, spec := range []Spec{IBM0661(), WrenIV()} {
		c := newSeekCurve(spec)
		prev := time.Duration(0)
		for d := 0; d < spec.Cylinders; d += 7 {
			got := c.time(d)
			if got < prev {
				t.Fatalf("%s: seek time decreased at distance %d: %v < %v", spec.Name, d, got, prev)
			}
			prev = got
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	data := make([]byte, 16*512)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var got []byte
	e.Spawn("t", func(p *sim.Proc) {
		_ = d.Write(p, 1000, data, nil)
		got, _ = d.Read(p, 1000, 16, nil)
	})
	e.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("read data != written data")
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnwrittenSectorsReadZero(t *testing.T) {
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	var got []byte
	e.Spawn("t", func(p *sim.Proc) { got, _ = d.Read(p, 5000, 4, nil) })
	e.Run()
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten sector not zero")
		}
	}
}

func TestRandomReadLatency(t *testing.T) {
	// A 4 KB random read on the IBM 0661 should take roughly
	// overhead + avg seek + half rotation + transfer: about 20-30 ms.
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	rng := rand.New(rand.NewSource(1))
	var total sim.Duration
	const ops = 50
	e.Spawn("t", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			lba := rng.Int63n(d.Sectors() - 8)
			start := p.Now()
			_, _ = d.Read(p, lba, 8, nil)
			total += p.Now().Sub(start)
		}
	})
	e.Run()
	avg := total / ops
	if avg < 15*time.Millisecond || avg > 35*time.Millisecond {
		t.Fatalf("avg 4KB random read = %v, want 15-35ms", avg)
	}
}

func TestWrenSlowerThanIBM(t *testing.T) {
	latency := func(spec Spec) sim.Duration {
		e := sim.New()
		d := mustNew(t, e, "d", spec)
		rng := rand.New(rand.NewSource(2))
		var total sim.Duration
		const ops = 50
		e.Spawn("t", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				lba := rng.Int63n(d.Sectors() - 8)
				start := p.Now()
				_, _ = d.Read(p, lba, 8, nil)
				total += p.Now().Sub(start)
			}
		})
		e.Run()
		return total / ops
	}
	ibm, wren := latency(IBM0661()), latency(WrenIV())
	if wren <= ibm {
		t.Fatalf("Wren IV (%v) should be slower than IBM 0661 (%v)", wren, ibm)
	}
}

func TestSequentialReadApproachesMediaRate(t *testing.T) {
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	const total = 4 << 20 // 4 MB
	var end sim.Time
	e.Spawn("t", func(p *sim.Proc) {
		lba := int64(0)
		for read := 0; read < total; read += 256 * 512 {
			_, _ = d.Read(p, lba, 256, nil)
			lba += 256
		}
		end = p.Now()
	})
	e.Run()
	rate := float64(total) / end.Seconds() / 1e6
	media := d.Spec().MediaRate() / 1e6
	if rate < media*0.75 || rate > media*1.01 {
		t.Fatalf("sequential read rate = %.2f MB/s, media = %.2f MB/s", rate, media)
	}
	if d.Stats().SeqHits == 0 {
		t.Fatal("expected track-buffer hits on sequential reads")
	}
}

func TestSequentialWriteSlowerThanRead(t *testing.T) {
	// Writes reposition every request (no read-ahead buffer help), so
	// sustained sequential writes are slower than reads on the same drive.
	run := func(write bool) float64 {
		e := sim.New()
		d := mustNew(t, e, "d0", IBM0661())
		const total = 2 << 20
		buf := make([]byte, 256*512)
		var end sim.Time
		e.Spawn("t", func(p *sim.Proc) {
			lba := int64(0)
			for done := 0; done < total; done += len(buf) {
				if write {
					_ = d.Write(p, lba, buf, nil)
				} else {
					_, _ = d.Read(p, lba, 256, nil)
				}
				lba += 256
			}
			end = p.Now()
		})
		e.Run()
		return float64(total) / end.Seconds() / 1e6
	}
	r, w := run(false), run(true)
	if w >= r {
		t.Fatalf("write rate %.2f >= read rate %.2f", w, r)
	}
}

func TestWrenStreamsSlowerThanIBM(t *testing.T) {
	// Both generations stream sequentially via their buffers, but the
	// Wren's slower spindle keeps it near the paper's 1.3 MB/s.
	rate := func(spec Spec) float64 {
		e := sim.New()
		d := mustNew(t, e, "d0", spec)
		const total = 2 << 20
		var end sim.Time
		e.Spawn("t", func(p *sim.Proc) {
			lba := int64(0)
			for read := 0; read < total; read += 128 * 512 {
				_, _ = d.Read(p, lba, 128, nil)
				lba += 128
			}
			end = p.Now()
		})
		e.Run()
		return float64(total) / end.Seconds() / 1e6
	}
	wren, ibm := rate(WrenIV()), rate(IBM0661())
	if wren >= ibm {
		t.Fatalf("Wren (%.2f) should stream slower than IBM (%.2f)", wren, ibm)
	}
	if wren < 1.1 || wren > 1.5 {
		t.Fatalf("Wren sequential = %.2f MB/s, want ~1.3", wren)
	}
}

func TestActuatorSerializesRequests(t *testing.T) {
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	g := sim.NewGroup(e)
	var latencies []sim.Duration
	for i := 0; i < 4; i++ {
		lba := int64(i * 100000)
		g.Go("r", func(p *sim.Proc) error {
			start := p.Now()
			_, err := d.Read(p, lba, 8, nil)
			latencies = append(latencies, p.Now().Sub(start))
			return err
		})
	}
	e.Run()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	// Queued requests should see increasing latency.
	for i := 1; i < len(latencies); i++ {
		if latencies[i] <= latencies[i-1] {
			t.Fatalf("latencies not increasing under queueing: %v", latencies)
		}
	}
}

func TestReadThroughPathIsBusLimited(t *testing.T) {
	// A 1 MB/s bus below the ~1.77 MB/s media rate must become the
	// bottleneck for a large read.
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	bus := sim.NewLink(e, "bus", 1.0, 0)
	const n = 2048 // sectors = 1 MB
	var end sim.Time
	e.Spawn("t", func(p *sim.Proc) {
		_, _ = d.Read(p, 0, n, sim.Path{bus})
		end = p.Now()
	})
	e.Run()
	rate := float64(n*512) / end.Seconds() / 1e6
	if rate > 1.02 || rate < 0.85 {
		t.Fatalf("bus-limited read rate = %.2f MB/s, want ~1.0", rate)
	}
}

func TestWriteThroughPathOverlapsMedia(t *testing.T) {
	// With a 3 MB/s bus feeding ~1.77 MB/s media, a large write should run
	// at roughly media rate (bus and media overlap), not the serialized
	// 1/(1/3+1/1.77) ~ 1.1 MB/s.
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	bus := sim.NewLink(e, "bus", 3.0, 0)
	data := make([]byte, 1<<20)
	var end sim.Time
	e.Spawn("t", func(p *sim.Proc) {
		_ = d.Write(p, 0, data, sim.Path{bus})
		end = p.Now()
	})
	e.Run()
	rate := float64(len(data)) / end.Seconds() / 1e6
	if rate < 1.4 {
		t.Fatalf("write rate = %.2f MB/s; bus/media not overlapped", rate)
	}
}

func TestPagestoreSparse(t *testing.T) {
	ps := newPagestore(1 << 30)
	buf := []byte("hello")
	ps.WriteAt(buf, 999_999_000)
	if ps.PagesAllocated() != 1 {
		t.Fatalf("pages = %d, want 1", ps.PagesAllocated())
	}
	out := make([]byte, 5)
	ps.ReadAt(out, 999_999_000)
	if !bytes.Equal(out, buf) {
		t.Fatal("round trip failed")
	}
}

func TestPagestoreCrossPageBoundary(t *testing.T) {
	ps := newPagestore(1 << 20)
	data := make([]byte, 3*pageBytes/2)
	for i := range data {
		data[i] = byte(i)
	}
	ps.WriteAt(data, pageBytes/2)
	out := make([]byte, len(data))
	ps.ReadAt(out, pageBytes/2)
	if !bytes.Equal(out, data) {
		t.Fatal("cross-page round trip failed")
	}
}

// TestDiskOutOfRangePanics: each way into the store — ReadInto, Write,
// ReadData, WriteData — bounds its access by the drive's capacity, for the
// store checks nothing itself.  Two sectors from the last one end a sector
// past the capacity, inside the store's last page, and write nothing.
func TestDiskOutOfRangePanics(t *testing.T) {
	two := make([]byte, 2*512)
	for _, c := range []struct {
		name   string
		access func(e *sim.Engine, d *Disk)
	}{
		{"ReadData", func(_ *sim.Engine, d *Disk) { d.ReadData(d.Sectors()-1, 2) }},
		{"WriteData", func(_ *sim.Engine, d *Disk) { d.WriteData(d.Sectors()-1, two) }},
		{"ReadInto", func(e *sim.Engine, d *Disk) {
			e.Spawn("read", func(p *sim.Proc) { _ = d.ReadInto(p, d.Sectors()-1, two, nil) })
			e.Run()
		}},
		{"Write", func(e *sim.Engine, d *Disk) {
			e.Spawn("write", func(p *sim.Proc) { _ = d.Write(p, d.Sectors()-1, two, nil) })
			e.Run()
		}},
	} {
		e := sim.New()
		d := mustNew(t, e, "d0", IBM0661())
		if d.Sectors()*512%pageBytes == 0 {
			t.Fatal("the capacity fills its last page: a sector past it is no page")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s a sector past the capacity did not panic", c.name)
				}
			}()
			c.access(e, d)
		}()
		if n := d.store.PagesAllocated(); n != 0 {
			t.Errorf("%s out of range allocated %d pages", c.name, n)
		}
	}
}

// TestQuickRoundTrip property-tests that any (offset, payload) write within
// range reads back identically, and leaves neighbouring bytes zero.
func TestQuickRoundTrip(t *testing.T) {
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	f := func(lbaRaw uint32, seed int64, nSectors uint8) bool {
		n := int(nSectors%32) + 1
		lba := int64(lbaRaw) % (d.Sectors() - int64(n))
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, n*512)
		_, _ = rng.Read(data)
		d.WriteData(lba, data)
		return bytes.Equal(d.ReadData(lba, n), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRotationalLatencyBounded(t *testing.T) {
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	rev := d.Spec().Revolution()
	for _, now := range []sim.Time{0, 1000, sim.Time(rev / 2), sim.Time(3 * rev)} {
		for _, lba := range []int64{0, 10, 47, 48, 1000} {
			lat := d.rotationalLatency(now, lba)
			if lat < 0 || lat >= rev {
				t.Fatalf("rotational latency %v out of [0, %v)", lat, rev)
			}
		}
	}
}

func TestMediaTimeIncludesSwitches(t *testing.T) {
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	spt := d.Spec().SectorsPerTrack
	within := d.mediaTime(0, spt)     // one full track, no crossing
	crossing := d.mediaTime(0, spt+1) // crosses into next track
	if crossing <= within+d.Spec().SectorTime()/2 {
		t.Fatal("track crossing should add head-switch time")
	}
	perCyl := spt * d.Spec().Heads
	cylCross := d.mediaTime(int64(perCyl-1), 2)
	if cylCross <= 2*d.Spec().SectorTime() {
		t.Fatal("cylinder crossing should add track-to-track seek")
	}
}

// mustNew builds a disk from a spec the test knows is valid.
func mustNew(tb testing.TB, e *sim.Engine, name string, spec Spec) *Disk {
	tb.Helper()
	d, err := New(e, name, spec)
	if err != nil {
		tb.Fatalf("New(%s): %v", name, err)
	}
	return d
}

func TestNewRejectsBadSpec(t *testing.T) {
	e := sim.New()
	bad := IBM0661()
	bad.Cylinders = 0
	if _, err := New(e, "d0", bad); err == nil {
		t.Fatal("New accepted a spec with zero cylinders")
	}
	rev := IBM0661()
	rev.SeekMax = rev.SeekTrackToTrack / 2
	if _, err := New(e, "d0", rev); err == nil {
		t.Fatal("New accepted a spec with max seek below track-to-track seek")
	}
}

// TestDiskWriteAllocs: a warm Write forks one process, the positioning
// worker, whatever its chunk count, and allocates no more for 32 chunks
// than for 2: its chunks are engine steps, not processes.
func TestDiskWriteAllocs(t *testing.T) {
	const period = sim.Time(time.Second)
	measure := func(chunks int) (spawns uint64, allocs float64) {
		e := sim.New()
		d := mustNew(t, e, "d0", IBM0661())
		path := sim.Path{sim.NewLink(e, "bus", 10, 0)}
		data := bytes.Repeat([]byte{0x5a}, chunks*sim.DefaultChunk)
		e.Spawn("writer", func(p *sim.Proc) {
			for {
				if err := d.Write(p, 0, data, path); err != nil {
					t.Error(err)
				}
				p.WaitUntil(p.Now() + period - p.Now()%period)
			}
		})
		e.RunUntil(3 * period) // warm: pages, chunk states, process shells, the event heap
		next, before := e.Now(), e.Spawns()
		allocs = testing.AllocsPerRun(50, func() {
			next += period
			e.RunUntil(next)
		})
		spawns = (e.Spawns() - before) / 51
		e.Shutdown()
		return spawns, allocs
	}
	s2, a2 := measure(2)
	s32, a32 := measure(32)
	if s2 != 1 || s32 != 1 {
		t.Errorf("a write spawns %d processes with 2 chunks and %d with 32, want 1 (the positioning worker)", s2, s32)
	}
	if a32 > a2 {
		t.Errorf("a warm 32-chunk write allocates %.1f objects, a 2-chunk one %.1f: allocations grow with the chunk count", a32, a2)
	}
}

// TestLatentSplitKeepsLaterRuns: a write strictly inside one bad run splits
// it and leaves the runs listed after it armed.
func TestLatentSplitKeepsLaterRuns(t *testing.T) {
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	d.AddLatentError(10, 10)
	d.AddLatentError(100, 10)
	e.Spawn("t", func(p *sim.Proc) {
		if err := d.Write(p, 15, make([]byte, d.SectorSize()), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Read(p, 15, 1, nil); err != nil {
			t.Errorf("rewritten sector 15: %v", err)
		}
		for _, lba := range []int64{10, 14, 16, 19, 100, 109} {
			if _, err := d.Read(p, lba, 1, nil); !errors.Is(err, fault.ErrMedium) {
				t.Errorf("sector %d: err = %v, want ErrMedium", lba, err)
			}
		}
	})
	e.Run()
}
