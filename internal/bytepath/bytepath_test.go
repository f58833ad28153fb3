package bytepath

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"raidii/internal/sim"
)

// refXOR is the definition XOR is pinned to: the byte loop the parity
// engines used before the word-wide kernel.
func refXOR(dst, src []byte) {
	for i, v := range src {
		dst[i] ^= v
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// TestXORMatchesByteLoop covers every length from 0 to 257 at every
// alignment of both operands within a word.
func TestXORMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 257; n++ {
		for dOff := 0; dOff < 8; dOff++ {
			for sOff := 0; sOff < 8; sOff += 3 {
				dstBuf, srcBuf := randBytes(rng, n+16), randBytes(rng, n+16)
				want := bytes.Clone(dstBuf)
				refXOR(want[dOff:dOff+n], srcBuf[sOff:sOff+n])
				XOR(dstBuf[dOff:dOff+n], srcBuf[sOff:sOff+n])
				if !bytes.Equal(dstBuf, want) {
					t.Fatalf("n=%d dst+%d src+%d: XOR differs from the byte loop (or wrote outside dst)", n, dOff, sOff)
				}
			}
		}
	}
}

// TestXORAliasedClears: dst and src may be the same memory, and x ^ x = 0.
func TestXORAliasedClears(t *testing.T) {
	b := randBytes(rand.New(rand.NewSource(2)), 257)
	XOR(b, b)
	if !bytes.Equal(b, make([]byte, len(b))) {
		t.Fatal("XOR(b, b) did not clear b")
	}
}

func TestXORLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for unequal lengths")
		}
	}()
	XOR(make([]byte, 8), make([]byte, 9))
}

func FuzzXOR(f *testing.F) {
	f.Add([]byte("raid"), []byte("xbus-parity"), uint8(3))
	f.Add([]byte{}, []byte{0xff}, uint8(0))
	f.Fuzz(func(t *testing.T, a, b []byte, off uint8) {
		n := min(len(a), len(b))
		o := min(int(off), n)
		dst, src := bytes.Clone(a[o:n]), b[o:n]
		want := bytes.Clone(dst)
		refXOR(want, src)
		XOR(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("XOR differs from the byte loop at length %d", n-o)
		}
	})
}

func TestXORZeroAlloc(t *testing.T) {
	dst, src := make([]byte, 64<<10), make([]byte, 64<<10)
	if n := testing.AllocsPerRun(100, func() { XOR(dst, src) }); n != 0 {
		t.Fatalf("XOR allocates %v times per call", n)
	}
}

func BenchmarkXOR(b *testing.B) {
	dst, src := make([]byte, 64<<10), randBytes(rand.New(rand.NewSource(3)), 64<<10)
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		XOR(dst, src)
	}
}

// plainDev reads through Read alone; intoDev also offers ReadInto.
type plainDev struct {
	data  []byte
	err   error
	reads int
}

func (d *plainDev) Read(_ *sim.Proc, lba int64, n int) ([]byte, error) {
	d.reads++
	if d.err != nil {
		return nil, d.err
	}
	return bytes.Clone(d.data[lba*4 : (lba+int64(n))*4]), nil
}

func (d *plainDev) SectorSize() int { return 4 }
func (d *plainDev) Sectors() int64  { return int64(len(d.data) / 4) }

func (d *plainDev) Write(*sim.Proc, int64, []byte) error { return errors.New("read-only") }

type intoDev struct {
	plainDev
	intos int
}

func (d *intoDev) ReadInto(_ *sim.Proc, lba int64, dst []byte) error {
	d.intos++
	copy(dst, d.data[lba*4:])
	return nil
}

// TestReadIntoDiscovery: a device with ReadInto is read straight into dst
// and its Read is never called; one without is read through Read; either
// way dst holds the device's bytes, and errors pass through.
func TestReadIntoDiscovery(t *testing.T) {
	data := []byte("0123456789abcdefghij")
	want := data[4:12]

	plain := &plainDev{data: data}
	dst := make([]byte, 8)
	if err := ReadInto(plain, nil, 1, dst); err != nil || !bytes.Equal(dst, want) || plain.reads != 1 {
		t.Fatalf("via Read: err=%v dst=%q reads=%d", err, dst, plain.reads)
	}

	into := &intoDev{plainDev: plainDev{data: data}}
	dst = make([]byte, 8)
	if err := ReadInto(into, nil, 1, dst); err != nil || !bytes.Equal(dst, want) || into.intos != 1 || into.reads != 0 {
		t.Fatalf("via ReadInto: err=%v dst=%q intos=%d reads=%d", err, dst, into.intos, into.reads)
	}

	boom := errors.New("medium error")
	if err := ReadInto(&plainDev{err: boom}, nil, 0, dst); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestFreeList: Get hands back the most recently Put buffer as it was left,
// drops one that is too small, allocates zeroed when empty; Put keeps at most
// the bound; the zero list keeps nothing.
func TestFreeList(t *testing.T) {
	f := NewFreeList(2)
	a := f.Get(8)
	if len(a) != 8 || !bytes.Equal(a, make([]byte, 8)) {
		t.Fatalf("Get on an empty list returned %v, want 8 zero bytes", a)
	}
	b, c := []byte{1, 2, 3, 4}, []byte{5, 6, 7, 8}
	copy(a, "recycled")
	if !f.Put(a) || !f.Put(b) || f.Put(c) || f.Len() != 2 {
		t.Fatalf("a list of 2 did not keep exactly the first two of three buffers (Len = %d)", f.Len())
	}
	if got := f.Get(3); &got[0] != &b[0] || len(got) != 3 || got[2] != 3 {
		t.Fatalf("Get(3) = %v, want the first three bytes of the last buffer kept", got)
	}
	if got := f.Get(8); &got[0] != &a[0] || string(got) != "recycled" {
		t.Fatalf("Get(8) = %q, want the first buffer with its contents", got)
	}
	f.Put(b[:2]) // length is not capacity: the whole buffer comes back
	if got := f.Get(4); &got[0] != &b[0] || len(got) != 4 {
		t.Fatalf("a buffer Put short did not come back at its capacity: %v", got)
	}
	f.Put(b)
	if got := f.Get(5); len(got) != 5 || &got[0] == &b[0] || f.Len() != 0 {
		t.Fatalf("Get(5) over a 4-byte buffer: got %v with %d left, want a new one and the small one dropped", got, f.Len())
	}
	var zero FreeList
	if zero.Put(a) || zero.Len() != 0 {
		t.Fatal("the zero FreeList kept a buffer")
	}
}
