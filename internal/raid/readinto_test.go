package raid

import (
	"bytes"
	"runtime"
	"testing"

	"raidii/internal/sim"
)

// paperArray builds the paper's geometry over MemDevs: width devices of
// 16 stripes, 64 KB stripe units, filled with a pattern.
func paperArray(tb testing.TB, e *sim.Engine, width int, level Level) (*Array, []byte) {
	tb.Helper()
	const unitSecs, stripes = 128, 16
	devs := make([]Dev, width)
	for i := range devs {
		devs[i] = NewMemDev(unitSecs*stripes, tSec)
	}
	a, err := New(e, devs, Config{Level: level, StripeUnitSectors: unitSecs}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	data := patterned(int(a.Sectors())*tSec, 29)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, data); err != nil {
			tb.Fatal(err)
		}
	})
	return a, data
}

// TestReadIntoMatchesRead: the destination-passing read fills a dirty
// buffer with exactly what Read returns, healthy and double-degraded, at
// offsets that start and end inside stripe units.
func TestReadIntoMatchesRead(t *testing.T) {
	for _, failed := range [][]int{nil, {3, 9}} {
		e := sim.New()
		a, data := paperArray(t, e, 16, Level6)
		for _, d := range failed {
			if err := a.FailDisk(d); err != nil {
				t.Fatal(err)
			}
		}
		runProc(e, func(p *sim.Proc) {
			for _, r := range []struct{ lba, n int }{{0, 1}, {5, 300}, {127, 2}, {128 * 14 * 3, 128 * 14}, {1000, 2048}} {
				dst := bytes.Repeat([]byte{0xee}, r.n*tSec)
				if err := a.ReadInto(p, int64(r.lba), dst); err != nil {
					t.Fatal(err)
				}
				if want := data[r.lba*tSec : (r.lba+r.n)*tSec]; !bytes.Equal(dst, want) {
					t.Fatalf("failed=%v: ReadInto(%d,+%d) returned wrong bytes", failed, r.lba, r.n)
				}
			}
		})
	}
}

// TestScratchColumnsAreRecycled: after a degraded read, a rebuild and a
// scrub the free list holds buffers, a second pass draws on them instead of
// growing it, and what a recycled (dirty) column produced is still right.
func TestScratchColumnsAreRecycled(t *testing.T) {
	e := sim.New()
	a, data := paperArray(t, e, 16, Level6)
	_ = a.FailDisk(3)
	_ = a.FailDisk(9)
	pass := func(p *sim.Proc) {
		got, err := a.Read(p, 0, 128*14*2)
		if err != nil || !bytes.Equal(got, data[:len(got)]) {
			t.Fatalf("double-degraded read: err=%v, bytes match=%v", err, err == nil)
		}
	}
	runProc(e, pass)
	warm := a.colFree.Len()
	if warm == 0 {
		t.Fatal("no scratch columns returned to the free list")
	}
	runProc(e, pass)
	if a.colFree.Len() != warm {
		t.Fatalf("free list went from %d to %d buffers on an identical second pass", warm, a.colFree.Len())
	}
	runProc(e, func(p *sim.Proc) {
		for _, d := range []int{3, 9} {
			if _, err := a.Reconstruct(p, d, NewMemDev(128*16, tSec)); err != nil {
				t.Fatal(err)
			}
		}
		if bad := a.CheckParity(p); bad != 0 {
			t.Fatalf("%d inconsistent stripes after rebuilding through recycled scratch", bad)
		}
		pass(p)
	})
}

// bytesPerRead reports the heap bytes one a.Read of n sectors allocates,
// averaged over reads that walk the array, after a warm-up pass over the
// same addresses has filled the scratch free list.
func bytesPerRead(t *testing.T, e *sim.Engine, a *Array, n int) float64 {
	t.Helper()
	const reads = 40
	var before, after runtime.MemStats
	runProc(e, func(p *sim.Proc) {
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				runtime.ReadMemStats(&before)
			}
			for i := 0; i < reads; i++ {
				lba := int64(i*n) % (a.Sectors() - int64(n))
				if _, err := a.Read(p, lba, n); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.ReadMemStats(&after)
	})
	return float64(after.TotalAlloc-before.TotalAlloc) / reads
}

// TestArrayReadAllocationCeiling is the byte-path allocation gate: a read
// allocates its result and little else.  Healthy, every extent lands in
// the result straight from the device; double-degraded, the surviving
// columns and the solve work in recycled scratch.
func TestArrayReadAllocationCeiling(t *testing.T) {
	const n = 256 // sectors: the 128 KB request of the degraded_r6 workload
	returned := float64(n * tSec)

	e := sim.New()
	a, _ := paperArray(t, e, 16, Level6)
	if got := bytesPerRead(t, e, a, n); got > 1.1*returned {
		t.Errorf("healthy read allocates %.0f bytes for %.0f returned (%.2fx, ceiling 1.1x)", got, returned, got/returned)
	}
	_ = a.FailDisk(3)
	_ = a.FailDisk(9)
	if got := bytesPerRead(t, e, a, n); got > 1.5*returned {
		t.Errorf("double-degraded read allocates %.0f bytes for %.0f returned (%.2fx, ceiling 1.5x)", got, returned, got/returned)
	}
}

// BenchmarkArrayReadDegraded6 is a 128 KB read from a 16-wide Level 6
// array with two devices failed, over MemDevs: the P+Q solve and the
// column traffic with no disk model underneath.
func BenchmarkArrayReadDegraded6(b *testing.B) {
	const n = 256
	e := sim.New()
	a, _ := paperArray(b, e, 16, Level6)
	_ = a.FailDisk(3)
	_ = a.FailDisk(9)
	b.SetBytes(n * tSec)
	b.ReportAllocs()
	b.ResetTimer()
	runProc(e, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			lba := int64(i*n) % (a.Sectors() - n)
			if _, err := a.Read(p, lba, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}
