package lfs

import (
	"runtime"
	"testing"

	"raidii/internal/raid"
	"raidii/internal/sim"
)

// seqWrite formats dev with the paper's 960 KB segments and lays one file
// down in 256 KB requests, the seq_write workload's shape, ending in a Sync;
// it returns the bytes allocated from the first write to the end of the
// Sync.  The device is a bare MemDev: it copies into storage it already has,
// so every one of those bytes is the file system's.
func seqWrite(tb testing.TB, e *sim.Engine, dev Device, req []byte, total int) uint64 {
	tb.Helper()
	var before, after runtime.MemStats
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, DefaultConfig())
		if err != nil {
			tb.Fatal(err)
		}
		f, err := fs.Create(p, "/stream")
		if err != nil {
			tb.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		for off := 0; off < total; off += len(req) {
			if _, err := f.WriteAt(p, req, int64(off)); err != nil {
				tb.Fatal(err)
			}
		}
		if err := fs.Sync(p); err != nil {
			tb.Fatal(err)
		}
		runtime.ReadMemStats(&after)
	})
	return after.TotalAlloc - before.TotalAlloc
}

// TestSeqWriteAllocationCeiling is the write path's allocation gate: a
// user byte is copied once, into the segment image the device is handed, so
// a streaming write allocates its segment images (1.0 byte per byte) and
// little else.  A buffer per staged block, or a fresh buffer per seal, adds
// 1.0 each: this read 2.12 when both existed.
func TestSeqWriteAllocationCeiling(t *testing.T) {
	const total = 16 << 20
	e := sim.New()
	dev := raid.NewMemDev(24<<20/512, 512)
	req := pinPattern(256<<10, 0x42)
	if got := float64(seqWrite(t, e, dev, req, total)) / total; got > 1.15 {
		t.Errorf("sequential write allocates %.2f bytes per byte written (ceiling 1.15)", got)
	}
}

// BenchmarkLFSSeqWrite is a 16 MB streaming write and Sync through a fresh
// file system over a MemDev: segment assembly with no array underneath.
func BenchmarkLFSSeqWrite(b *testing.B) {
	const total = 16 << 20
	dev := raid.NewMemDev(24<<20/512, 512)
	req := pinPattern(256<<10, 0x42)
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seqWrite(b, sim.New(), dev, req, total)
	}
}
