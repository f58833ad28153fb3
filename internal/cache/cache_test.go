package cache

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"raidii/internal/sim"
)

// fakeDev is a deterministic in-memory backing store that records every
// read and write it serves, so tests can assert exactly what reached the
// "disks".
type fakeDev struct {
	secSize int
	data    []byte
	reads   []rng
	writes  []rng
}

type rng struct {
	lba  int64
	secs int
}

func newFakeDev(sectors int64, secSize int) *fakeDev {
	d := &fakeDev{secSize: secSize, data: make([]byte, sectors*int64(secSize))}
	for i := range d.data {
		d.data[i] = byte(i % 251)
	}
	return d
}

func (d *fakeDev) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	d.reads = append(d.reads, rng{lba, n})
	out := make([]byte, n*d.secSize)
	copy(out, d.data[lba*int64(d.secSize):])
	return out, nil
}

func (d *fakeDev) Write(p *sim.Proc, lba int64, data []byte) error {
	d.writes = append(d.writes, rng{lba, len(data) / d.secSize})
	copy(d.data[lba*int64(d.secSize):], data)
	return nil
}

func (d *fakeDev) Sectors() int64  { return int64(len(d.data) / d.secSize) }
func (d *fakeDev) SectorSize() int { return d.secSize }

// harness runs fn as a simulated process on a fresh engine with a cache of
// capLines lines of lineSecs sectors over a dev of devSectors sectors.
func harness(t *testing.T, devSectors int64, lineSecs, capLines int, stage bool, fn func(p *sim.Proc, c *Cache, dev *fakeDev)) {
	t.Helper()
	const secSize = 512
	e := sim.New()
	dev := newFakeDev(devSectors, secSize)
	c, err := New(e, dev, nil, Config{
		SizeBytes:   capLines * lineSecs * secSize,
		LineBytes:   lineSecs * secSize,
		StageWrites: stage,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("test", func(p *sim.Proc) { fn(p, c, dev) })
	e.Run()
}

func TestEvictionUnderCapacityPressure(t *testing.T) {
	harness(t, 1024, 8, 4, false, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		// Fill to capacity: lines 0-3.
		for li := int64(0); li < 4; li++ {
			_, _ = c.Read(p, li*8, 8)
		}
		if got := c.Stats(); got.Misses != 4 || got.Evictions != 0 {
			t.Fatalf("after fill: %+v", got)
		}
		// Touch line 0 so line 1 becomes the LRU victim.
		_, _ = c.Read(p, 0, 8)
		// Line 4 evicts exactly one line: the deterministic LRU tail (1).
		_, _ = c.Read(p, 4*8, 8)
		st := c.Stats()
		if st.Evictions != 1 {
			t.Fatalf("expected 1 eviction, got %+v", st)
		}
		if c.Lines() != 4 {
			t.Fatalf("resident lines = %d, want 4", c.Lines())
		}
		// Victim check: 0 hits, 1 misses.
		before := c.Stats()
		_, _ = c.Read(p, 0, 8)
		if got := c.Stats(); got.Hits != before.Hits+1 {
			t.Error("line 0 should have survived (was MRU-touched)")
		}
		before = c.Stats()
		_, _ = c.Read(p, 1*8, 8)
		if got := c.Stats(); got.Misses != before.Misses+1 {
			t.Error("line 1 should have been the LRU victim")
		}
	})
}

func TestWriteUpdatesResidentLineNoStaleHit(t *testing.T) {
	harness(t, 1024, 8, 4, false, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		_, _ = c.Read(p, 0, 8) // line 0 resident
		fresh := bytes.Repeat([]byte{0xAB}, 4*512)
		_ = c.Write(p, 2, fresh) // overwrite sectors 2-5 inside the line
		if len(dev.writes) != 1 {
			t.Fatalf("write-through: dev saw %d writes, want 1", len(dev.writes))
		}
		before := c.Stats()
		got, _ := c.Read(p, 0, 8)
		st := c.Stats()
		if st.Hits != before.Hits+1 {
			t.Fatalf("re-read should hit: %+v", st)
		}
		if !bytes.Equal(got[2*512:6*512], fresh) {
			t.Error("hit served stale pre-write data")
		}
		if st.Updates != 1 {
			t.Errorf("Updates = %d, want 1", st.Updates)
		}
	})
}

func TestWriteStagingAllocatesFullLinesOnly(t *testing.T) {
	harness(t, 1024, 8, 4, true, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		// A write fully covering line 2 is staged; the partial tail into
		// line 3 is not.
		data := bytes.Repeat([]byte{0x5C}, 12*512) // sectors 16-27
		_ = c.Write(p, 16, data)
		st := c.Stats()
		if st.Staged != 1 {
			t.Fatalf("Staged = %d, want 1", st.Staged)
		}
		devReads := len(dev.reads)
		got, _ := c.Read(p, 16, 8)
		if len(dev.reads) != devReads {
			t.Error("read of freshly staged line went to the backing store")
		}
		if !bytes.Equal(got, data[:8*512]) {
			t.Error("staged line returned wrong bytes")
		}
		// The partially covered line 3 must miss.
		before := c.Stats()
		_, _ = c.Read(p, 24, 8)
		if got := c.Stats(); got.Misses != before.Misses+1 {
			t.Error("partially written line should not have been allocated")
		}
	})
}

func TestNoStagingWhenDisabled(t *testing.T) {
	harness(t, 1024, 8, 4, false, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		_ = c.Write(p, 16, bytes.Repeat([]byte{1}, 8*512))
		if st := c.Stats(); st.Staged != 0 || c.Lines() != 0 {
			t.Fatalf("staging disabled but Staged=%d Lines=%d", st.Staged, c.Lines())
		}
	})
}

func TestMissRunCoalescing(t *testing.T) {
	harness(t, 1024, 8, 8, false, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		// 4 consecutive missing lines fill with ONE backing read, so the
		// array parallelizes it across the stripe like an uncached read.
		_, _ = c.Read(p, 0, 32)
		if len(dev.reads) != 1 || dev.reads[0] != (rng{0, 32}) {
			t.Fatalf("fill reads = %v, want one run of 32 sectors", dev.reads)
		}
		// A hit sandwiched between two misses splits the fill into two runs.
		_, _ = c.Read(p, 5*8, 8) // make line 5 resident
		dev.reads = nil
		_, _ = c.Read(p, 4*8, 3*8) // lines 4 (miss), 5 (hit), 6 (miss)
		want := []rng{{4 * 8, 8}, {6 * 8, 8}}
		if len(dev.reads) != 2 || dev.reads[0] != want[0] || dev.reads[1] != want[1] {
			t.Fatalf("fill reads = %v, want %v", dev.reads, want)
		}
		// Missing sectors on both sides of a line boundary are one read too:
		// line 8 holds sectors 64-67 and line 9 sectors 76-79, so a read of
		// both lines fetches 68-75 at once.
		_, _ = c.Read(p, 64, 4)
		_, _ = c.Read(p, 76, 4)
		dev.reads = nil
		got, _ := c.Read(p, 64, 16)
		if len(dev.reads) != 1 || dev.reads[0] != (rng{68, 8}) {
			t.Fatalf("fill reads = %v, want one run of sectors 68-75", dev.reads)
		}
		if !bytes.Equal(got, dev.data[64*512:80*512]) {
			t.Error("a read across two partly valid lines returned wrong bytes")
		}
	})
}

// TestMissReadsOnlyTheSectorsItLacks: a miss reads exactly the request's
// sectors, never the rest of its line.  Reading the other half of the line
// then reads only that half and serves the first from memory, and a read
// with valid sectors in its middle reads the two sides.
func TestMissReadsOnlyTheSectorsItLacks(t *testing.T) {
	harness(t, 1024, 8, 4, false, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		if _, err := c.Read(p, 0, 4); err != nil {
			t.Fatal(err)
		}
		if len(dev.reads) != 1 || dev.reads[0] != (rng{0, 4}) {
			t.Fatalf("a 4-sector miss read %v, want sectors 0-3 only", dev.reads)
		}
		if st := c.Stats(); st.FillBytes != 4*512 || st.Misses != 1 {
			t.Fatalf("after the miss: %+v, want 1 miss filling %d bytes", st, 4*512)
		}
		dev.reads = nil
		before := c.Stats()
		got, err := c.Read(p, 0, 8)
		if err != nil || !bytes.Equal(got, dev.data[:8*512]) {
			t.Fatalf("the whole line reads back wrong (err=%v)", err)
		}
		if len(dev.reads) != 1 || dev.reads[0] != (rng{4, 4}) {
			t.Fatalf("the other half read %v, want sectors 4-7 only", dev.reads)
		}
		st := c.Stats()
		if st.HitBytes-before.HitBytes != 4*512 || st.FillBytes-before.FillBytes != 4*512 || st.Misses != before.Misses+1 {
			t.Fatalf("the other half: %+v -> %+v, want a miss serving 4 sectors from memory and filling 4", before, st)
		}
		dev.reads = nil
		if _, err := c.Read(p, 0, 8); err != nil || len(dev.reads) != 0 || c.Stats().Hits != st.Hits+1 {
			t.Fatalf("the filled line does not hit (err=%v, reads %v)", err, dev.reads)
		}

		if _, err := c.Read(p, 8+3, 2); err != nil {
			t.Fatal(err)
		}
		dev.reads = nil
		got, err = c.Read(p, 8, 8)
		want := []rng{{8, 3}, {8 + 5, 3}}
		if err != nil || len(dev.reads) != 2 || dev.reads[0] != want[0] || dev.reads[1] != want[1] {
			t.Fatalf("a read around valid sectors read %v (err=%v), want %v", dev.reads, err, want)
		}
		if !bytes.Equal(got, dev.data[8*512:16*512]) {
			t.Error("a read around valid sectors returned wrong bytes")
		}
	})
}

// TestOverlayMakesWrittenSectorsValid: a write over a partly valid line
// makes the sectors it wrote hit and leaves the others missing.
func TestOverlayMakesWrittenSectorsValid(t *testing.T) {
	harness(t, 1024, 8, 4, false, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		if _, err := c.Read(p, 0, 2); err != nil {
			t.Fatal(err)
		}
		fresh := bytes.Repeat([]byte{0xAB}, 2*512)
		if err := c.Write(p, 4, fresh); err != nil {
			t.Fatal(err)
		}
		dev.reads = nil
		before := c.Stats()
		got, err := c.Read(p, 4, 2)
		if err != nil || !bytes.Equal(got, fresh) {
			t.Fatalf("the written sectors read back wrong (err=%v)", err)
		}
		if st := c.Stats(); len(dev.reads) != 0 || st.Hits != before.Hits+1 {
			t.Fatalf("the written sectors did not hit: reads %v, %+v", dev.reads, st)
		}
		got, err = c.Read(p, 0, 8)
		want := []rng{{2, 2}, {6, 2}}
		if err != nil || len(dev.reads) != 2 || dev.reads[0] != want[0] || dev.reads[1] != want[1] {
			t.Fatalf("the line around the overlay read %v (err=%v), want %v", dev.reads, err, want)
		}
		if !bytes.Equal(got, dev.data[:8*512]) || !bytes.Equal(got[4*512:6*512], fresh) {
			t.Error("the line around the overlay returned wrong bytes")
		}
	})
}

// delayDev is a fakeDev whose reads take delay(lba) of simulated time and
// copy the device's bytes when they end.
type delayDev struct {
	*fakeDev
	delay func(lba int64) sim.Duration
}

func (d delayDev) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	p.Wait(d.delay(lba))
	return d.fakeDev.Read(p, lba, n)
}

// TestFillDoesNotInstallOverAConcurrentWrite: a read that fills two lines
// installs them when its slower fill lands.  A write that reached the device
// after the faster fill read it must not be covered by that fill's old
// bytes, or every later hit serves them.
func TestFillDoesNotInstallOverAConcurrentWrite(t *testing.T) {
	const secSize, lineSecs = 512, 8
	e := sim.New()
	dev := delayDev{newFakeDev(1024, secSize), func(lba int64) sim.Duration {
		if lba < lineSecs {
			return time.Millisecond
		}
		return 10 * time.Millisecond
	}}
	c, err := New(e, dev, nil, Config{SizeBytes: 4 * lineSecs * secSize, LineBytes: lineSecs * secSize})
	if err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0xEE}, 4*secSize)
	e.Spawn("reader", func(p *sim.Proc) {
		if _, err := c.Read(p, lineSecs, lineSecs); err != nil { // line 1 resident at 10 ms
			t.Fatal(err)
		}
		// Line 0 fills in 1 ms and line 2 in 10 ms; the write lands at 3 ms.
		if _, err := c.Read(p, 0, 3*lineSecs); err != nil {
			t.Fatal(err)
		}
		got, err := c.Read(p, 0, 4)
		if err != nil || !bytes.Equal(got, fresh) {
			t.Fatalf("a read after the write returns the bytes the fill read before it (err=%v)", err)
		}
		reads := len(dev.reads)
		got, err = c.Read(p, 4, 4)
		if err != nil || !bytes.Equal(got, dev.data[4*secSize:8*secSize]) || len(dev.reads) != reads {
			t.Fatalf("the sectors the write did not reach were not installed (err=%v, reads %d -> %d)", err, reads, len(dev.reads))
		}
		// The fill records come back clean: a later fill of two other lines
		// draws both, the one that noted the write too, and installs every
		// sector it read.
		if _, err := c.Read(p, 3*lineSecs, 2*lineSecs); err != nil {
			t.Fatal(err)
		}
		reads = len(dev.reads)
		if _, err := c.Read(p, 3*lineSecs, 2*lineSecs); err != nil || len(dev.reads) != reads {
			t.Fatalf("a fill through a recycled record left sectors invalid (err=%v, reads %d -> %d)", err, reads, len(dev.reads))
		}
	})
	e.Spawn("writer", func(p *sim.Proc) {
		p.Wait(13 * time.Millisecond)
		if err := c.Write(p, 0, fresh); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if len(dev.writes) != 1 {
		t.Fatalf("the device saw %d writes, want 1", len(dev.writes))
	}
}

func TestReadReturnsCorrectBytes(t *testing.T) {
	harness(t, 1024, 8, 4, false, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		// Unaligned read mixing hits and misses must equal the raw device.
		_, _ = c.Read(p, 8, 8) // line 1 resident
		got, _ := c.Read(p, 3, 20)
		want := dev.data[3*512 : 23*512]
		if !bytes.Equal(got, want) {
			t.Error("mixed hit/miss read returned wrong bytes")
		}
	})
}

func TestTailLineShortFill(t *testing.T) {
	// Device of 20 sectors with 8-sector lines: line 2 is only 4 sectors.
	harness(t, 20, 8, 4, false, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		got, _ := c.Read(p, 16, 4)
		if !bytes.Equal(got, dev.data[16*512:20*512]) {
			t.Error("tail-line read returned wrong bytes")
		}
		before := c.Stats()
		got, _ = c.Read(p, 16, 4)
		if st := c.Stats(); st.Hits != before.Hits+1 {
			t.Error("tail line should be resident after fill")
		}
		if !bytes.Equal(got, dev.data[16*512:20*512]) {
			t.Error("tail-line hit returned wrong bytes")
		}
	})
}

func TestInvalidateAll(t *testing.T) {
	harness(t, 1024, 8, 4, false, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		_, _ = c.Read(p, 0, 16)
		if c.Lines() != 2 {
			t.Fatalf("Lines = %d, want 2", c.Lines())
		}
		c.InvalidateAll()
		if c.Lines() != 0 {
			t.Fatalf("Lines = %d after InvalidateAll", c.Lines())
		}
		if st := c.Stats(); st.Invalidations != 2 {
			t.Fatalf("Invalidations = %d, want 2", st.Invalidations)
		}
		before := c.Stats()
		_, _ = c.Read(p, 0, 8)
		if st := c.Stats(); st.Misses != before.Misses+1 {
			t.Error("post-invalidate read must miss")
		}
	})
}

func TestDeterministicEvictionSequence(t *testing.T) {
	// The same access pattern must produce the identical eviction count and
	// resident set on every run — the property the trace-determinism gate
	// relies on.
	run := func() (Stats, []int64) {
		var st Stats
		var resident []int64
		harness(t, 4096, 8, 8, true, func(p *sim.Proc, c *Cache, dev *fakeDev) {
			for i := 0; i < 100; i++ {
				li := int64((i * 37) % 64)
				if i%3 == 0 {
					_ = c.Write(p, li*8, make([]byte, 8*512))
				} else {
					_, _ = c.Read(p, li*8, 8)
				}
			}
			st = c.Stats()
			for li := int64(0); li < 64; li++ {
				if _, ok := c.table[li]; ok {
					resident = append(resident, li)
				}
			}
		})
		return st, resident
	}
	st1, res1 := run()
	st2, res2 := run()
	if st1 != st2 {
		t.Errorf("stats differ across identical runs: %+v vs %+v", st1, st2)
	}
	if len(res1) != len(res2) {
		t.Fatalf("resident sets differ in size: %d vs %d", len(res1), len(res2))
	}
	for i := range res1 {
		if res1[i] != res2[i] {
			t.Errorf("resident line %d differs: %d vs %d", i, res1[i], res2[i])
		}
	}
	if st1.Evictions == 0 {
		t.Error("workload was meant to overflow the cache")
	}
}

func TestConfigValidation(t *testing.T) {
	e := sim.New()
	dev := newFakeDev(64, 512)
	if _, err := New(e, dev, nil, Config{SizeBytes: 100, LineBytes: 100}); err == nil {
		t.Error("non-sector-multiple line size accepted")
	}
	if _, err := New(e, dev, nil, Config{SizeBytes: 512, LineBytes: 1024}); err == nil {
		t.Error("cache smaller than one line accepted")
	}
	if c, err := New(e, dev, nil, Config{SizeBytes: 2 * DefaultLineBytes}); err != nil {
		t.Errorf("default line size rejected: %v", err)
	} else if c.LineBytes() != DefaultLineBytes {
		t.Errorf("LineBytes = %d, want default %d", c.LineBytes(), DefaultLineBytes)
	}
}

// TestReadIntoDestinationNeverAliasesLines: the buffer a read filled is the
// caller's.  Scribbling on it — after a miss that filled lines, after a hit,
// and on the result of Read — never changes what the cache serves next, and
// a device that only offers Read is still read through it.
func TestReadIntoDestinationNeverAliasesLines(t *testing.T) {
	harness(t, 1024, 8, 4, true, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		want := append([]byte(nil), dev.data[3*512:(3+20)*512]...)
		scribbled := func(what string) {
			t.Helper()
			got, err := c.Read(p, 3, 20)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: the cache now serves different bytes (err=%v)", what, err)
			}
			clear(got)
		}
		dst := bytes.Repeat([]byte{0x77}, 20*512)
		if err := c.ReadInto(p, 3, dst); err != nil || !bytes.Equal(dst, want) {
			t.Fatalf("miss: err=%v, bytes match=%v", err, err == nil)
		}
		if len(dev.reads) == 0 {
			t.Fatal("the fill did not go through the device's Read")
		}
		clear(dst)
		scribbled("after scribbling on a miss's destination")
		if err := c.ReadInto(p, 3, dst); err != nil || !bytes.Equal(dst, want) {
			t.Fatalf("hit: err=%v, bytes match=%v", err, err == nil)
		}
		clear(dst)
		scribbled("after scribbling on a hit's destination")
		scribbled("after scribbling on a Read result")
		// A staged write keeps its own copy too.
		fresh := bytes.Repeat([]byte{0x11}, 8*512)
		if err := c.Write(p, 8, fresh); err != nil {
			t.Fatal(err)
		}
		copy(want[(8-3)*512:], fresh)
		clear(fresh)
		scribbled("after scribbling on a written buffer")

		// Push a staged line out by staging a new one — it takes over the
		// evicted line's buffer — and read the first again: it comes from
		// the device, with its own bytes.
		lineA := bytes.Repeat([]byte{0xa1}, 8*512)
		if err := c.Write(p, 80, lineA); err != nil {
			t.Fatal(err)
		}
		for lba := int64(88); lba < 88+3*8; lba += 8 { // three more staged lines: line A is the LRU tail
			if err := c.Write(p, lba, bytes.Repeat([]byte{byte(lba)}, 8*512)); err != nil {
				t.Fatal(err)
			}
		}
		if c.tail.tag != 10 || c.Lines() != 4 || len(c.free) != 0 {
			t.Fatalf("LRU tail is line %d of %d with %d free buffers, want line 10 (A) of 4 with none", c.tail.tag, c.Lines(), len(c.free))
		}
		bufA := &c.tail.data[0]
		lineX := bytes.Repeat([]byte{0x22}, 8*512)
		if err := c.Write(p, 160, lineX); err != nil {
			t.Fatal(err)
		}
		if &c.table[20].data[0] != bufA || len(c.free) != 0 {
			t.Fatalf("the new line did not take over the evicted line's buffer (%d on the free list)", len(c.free))
		}
		before := len(dev.reads)
		if got, err := c.Read(p, 80, 8); err != nil || !bytes.Equal(got, lineA) {
			t.Fatalf("the evicted line reads back wrong after its buffer was reused (err=%v)", err)
		}
		if len(dev.reads) == before {
			t.Fatal("the evicted line was served without a device read")
		}
		if got, err := c.Read(p, 160, 8); err != nil || !bytes.Equal(got, lineX) {
			t.Fatalf("the new staged line reads back wrong (err=%v)", err)
		}
	})

	// The last line of a device that is not a whole number of lines long is
	// short: a full-size buffer of its own, not a piece of the caller's, with
	// only the sectors the device has valid, and the buffer serves a full line
	// afterwards.
	harness(t, 8*8+3, 8, 2, true, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		want := append([]byte(nil), dev.data[7*8*512:]...) // line 7 and the 3-sector line 8
		dst := make([]byte, len(want))
		if err := c.ReadInto(p, 7*8, dst); err != nil || !bytes.Equal(dst, want) {
			t.Fatalf("miss across the short last line: err=%v, bytes match=%v", err, err == nil)
		}
		tail := c.table[8]
		tailBuf := &tail.data[0]
		if len(tail.data) != 8*512 || !tail.valid.all(0, 3) || tail.valid.has(3) {
			t.Fatalf("short last line holds %d bytes with valid sectors %08b, want %d bytes with sectors 0-2 valid", len(tail.data), tail.valid[0], 8*512)
		}
		clear(dst)
		reads := len(dev.reads)
		if got, err := c.Read(p, 7*8, 8+3); err != nil || !bytes.Equal(got, want) || len(dev.reads) != reads {
			t.Fatalf("hit on the short last line: err=%v, device reads %d -> %d", err, reads, len(dev.reads))
		}
		patch := bytes.Repeat([]byte{0x5a}, 3*512)
		if err := c.Write(p, 8*8, patch); err != nil { // overlay, clamped to the short line
			t.Fatal(err)
		}
		if got, err := c.Read(p, 8*8, 3); err != nil || !bytes.Equal(got, patch) {
			t.Fatalf("overlay of the short last line reads back wrong (err=%v)", err)
		}
		// Lines 0 and 1 push both out; one of them now lives in the short
		// line's buffer at full length.
		if _, err := c.Read(p, 0, 16); err != nil {
			t.Fatal(err)
		}
		for li := int64(0); li < 2; li++ {
			if ln := c.table[li]; len(ln.data) != 8*512 || !ln.valid.all(0, 8) || !bytes.Equal(ln.data, dev.data[li*8*512:(li+1)*8*512]) {
				t.Fatalf("line %d after reusing the buffers: len %d, bytes match=%v", li, len(ln.data), len(ln.data) == 8*512)
			}
		}
		if &c.table[0].data[0] != tailBuf && &c.table[1].data[0] != tailBuf {
			t.Fatal("the short line's buffer was not reused for a full line")
		}
	})
}

// intoDev is a fakeDev that also offers the destination-passing read, so a
// fill costs the device no buffer and every byte a miss allocates is the
// cache's.
type intoDev struct{ *fakeDev }

func (d intoDev) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	d.reads = append(d.reads, rng{lba, len(dst) / d.secSize})
	copy(dst, d.data[lba*int64(d.secSize):])
	return nil
}

// missLoop reads n extents of c that always miss: a cache of capLines lines
// walks a device much larger than itself, alternating one-line and
// three-line reads into dst.
func missLoop(tb testing.TB, p *sim.Proc, c *Cache, dst []byte, n int) {
	lineSecs, lines := int64(c.lineSecs), c.devSecs/int64(c.lineSecs)
	at := int64(0)
	for i := 0; i < n; i++ {
		span := int64(1 + 2*(i%2))
		if at+span > lines {
			at = 0
		}
		if err := c.ReadInto(p, at*lineSecs, dst[:span*lineSecs*int64(c.secSize)]); err != nil {
			tb.Fatal(err)
		}
		at += span
	}
}

// missCache is a cache of 8 lines of 16 KB over a 4 MB device.
func missCache(tb testing.TB) (*sim.Engine, *Cache, []byte) {
	const secSize, lineSecs, capLines = 512, 32, 8
	e := sim.New()
	c, err := New(e, intoDev{newFakeDev(256*lineSecs, secSize)}, nil, Config{SizeBytes: capLines * lineSecs * secSize, LineBytes: lineSecs * secSize})
	if err != nil {
		tb.Fatal(err)
	}
	return e, c, make([]byte, 3*lineSecs*secSize)
}

// TestMissFillAllocationCeiling: a cache at capacity owns every buffer it
// will need — a miss takes its lines' records, buffers and bitmaps, from the
// lines it evicts and reads straight into the caller's destination — so
// 1,000 misses allocate bookkeeping (the fork) and not one line's worth of
// bytes each, as they did when every fill made its own buffer: 32 MB here.
func TestMissFillAllocationCeiling(t *testing.T) {
	e, c, dst := missCache(t)
	e.Spawn("t", func(p *sim.Proc) {
		missLoop(t, p, c, dst, 16) // warm-up: to capacity
		evictions := c.Stats().Evictions
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		missLoop(t, p, c, dst, 1000)
		runtime.ReadMemStats(&after)
		if st := c.Stats(); st.Hits != 0 || st.Evictions-evictions != 2000 {
			t.Fatalf("%d hits, %d evictions: the loop was meant to miss 2,000 lines at capacity", st.Hits, st.Evictions-evictions)
		}
		if got := (after.TotalAlloc - before.TotalAlloc) / 1000; got > 1024 {
			t.Errorf("a miss at capacity allocates %d bytes, want bookkeeping only (a line is %d)", got, c.LineBytes())
		}
	})
	e.Run()
}

// BenchmarkCacheMissFill is 1,000 misses (2,000 lines of 16 KB) through a
// cache at capacity: fill, install, evict.
func BenchmarkCacheMissFill(b *testing.B) {
	e, c, dst := missCache(b)
	b.SetBytes(2000 * int64(c.LineBytes()))
	b.ReportAllocs()
	e.Spawn("b", func(p *sim.Proc) {
		missLoop(b, p, c, dst, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			missLoop(b, p, c, dst, 1000)
		}
	})
	e.Run()
}

// TestInvalidateAllKeepsTheBuffers: a crash drops every line but not the
// memory: the refill draws the buffers back, and the counters say what they
// said when the buffers were thrown away.
func TestInvalidateAllKeepsTheBuffers(t *testing.T) {
	harness(t, 1024, 8, 4, true, func(p *sim.Proc, c *Cache, dev *fakeDev) {
		if _, err := c.Read(p, 0, 3*8); err != nil {
			t.Fatal(err)
		}
		owned := map[*byte]bool{}
		for _, ln := range c.table {
			owned[&ln.data[0]] = true
		}
		c.InvalidateAll()
		if st := c.Stats(); st.Invalidations != 3 || c.Lines() != 0 || len(c.free) != 3 || c.head != nil || c.tail != nil {
			t.Fatalf("after InvalidateAll: %d invalidations, %d lines, %d free buffers", st.Invalidations, c.Lines(), len(c.free))
		}
		want := append([]byte(nil), dev.data[40*512:(40+3*8)*512]...)
		if got, err := c.Read(p, 40, 3*8); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("post-crash refill reads wrong bytes (err=%v)", err)
		}
		for li, ln := range c.table {
			if !owned[&ln.data[0]] {
				t.Errorf("line %d of the refill is in a new buffer", li)
			}
		}
		if st := c.Stats(); st.Invalidations != 3 || st.Evictions != 0 {
			t.Errorf("refill moved the counters: %+v", st)
		}
	})
}
