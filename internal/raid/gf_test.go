package raid

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// The definitions the slice kernels are pinned to: the scalar log/exp
// arithmetic, one byte at a time, as the Level 6 paths computed it before
// the product rows and the Horner syndrome.

func refMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

func refMulSliceInto(dst, src []byte, c byte) {
	for i, v := range src {
		dst[i] ^= refMul(c, v)
	}
}

func refDivSlice(buf []byte, c byte) {
	for i, v := range buf {
		buf[i] = gfDiv(v, c)
	}
}

func refQParity(n int, cols [][]byte) []byte {
	out := make([]byte, n)
	for pos, c := range cols {
		if c != nil {
			refMulSliceInto(out, c, gfPow(pos))
		}
	}
	return out
}

func randColumn(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// allValues holds every field element, then a tail that makes the length
// odd so the word loops and the byte tails both run.
func allValues() []byte {
	b := make([]byte, 256+5)
	for i := range b {
		b[i] = byte(i * 7)
	}
	for i := 0; i < 256; i++ {
		b[i] = byte(i)
	}
	return b
}

// TestGFSliceKernelsAllCoefficients checks multiply-accumulate and divide
// on every path for all 256 coefficients against all 256 values.
func TestGFSliceKernelsAllCoefficients(t *testing.T) {
	src := allValues()
	for _, k := range gfKernels {
		t.Run(k.name, func(t *testing.T) {
			for c := 0; c < 256; c++ {
				got, want := bytes.Repeat([]byte{0xa5}, len(src)), bytes.Repeat([]byte{0xa5}, len(src))
				k.mulInto(got, src, byte(c))
				refMulSliceInto(want, src, byte(c))
				if !bytes.Equal(got, want) {
					t.Fatalf("multiply-accumulate differs from the scalar product for coefficient %#x", c)
				}
				if c == 0 {
					continue // no division by zero
				}
				got, want = bytes.Clone(src), bytes.Clone(src)
				k.div(got, byte(c))
				refDivSlice(want, byte(c))
				if !bytes.Equal(got, want) {
					t.Fatalf("divide differs from the scalar quotient for divisor %#x", c)
				}
			}
		})
	}
}

// TestGFMulTableMatchesLogExp pins the product table, and the word-wide
// multiply by the generator, to the scalar definition.
func TestGFMulTableMatchesLogExp(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if gfMul(byte(a), byte(b)) != refMul(byte(a), byte(b)) {
				t.Fatalf("gfMul(%#x, %#x) = %#x, want %#x", a, b, gfMul(byte(a), byte(b)), refMul(byte(a), byte(b)))
			}
		}
		w := gfMul2Word(uint64(a) * 0x0101010101010101)
		if want := uint64(refMul(2, byte(a))) * 0x0101010101010101; w != want {
			t.Fatalf("gfMul2Word(%#x in every lane) = %#x, want %#x", a, w, want)
		}
	}
}

// TestQParityIntoMatchesDefinition: on every path the Q syndrome equals the
// sum of scaled columns at every length from 0 to 257 (whole 64-byte
// blocks, whole words and byte tails) for 1 to 22 columns (a 24-disk Level
// 6 stripe), with absent columns at the top, the bottom and in between,
// and whatever dst held before; and at 64 KB for every column count with
// absent columns in between.
func TestQParityIntoMatchesDefinition(t *testing.T) {
	const most = 22
	lengths := make([]int, 0, 259)
	for n := 0; n <= 257; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 64<<10)
	rng := rand.New(rand.NewSource(6))
	for _, n := range lengths {
		pool := make([][]byte, most)
		for pos := range pool {
			pool[pos] = randColumn(rng, n)
		}
		for width := 1; width <= most; width++ {
			top := width - 1
			patterns := [][]int{{width / 3, 2 * width / 3}, nil, {0}, {top}, {top - 1, top}, allPositions(width)}
			if n > 257 {
				patterns = patterns[:1] // the short lengths cover every pattern
			}
			for _, absent := range patterns {
				cols := append([][]byte(nil), pool[:width]...)
				for _, pos := range absent {
					if pos >= 0 {
						cols[pos] = nil
					}
				}
				want := refQParity(n, cols)
				for _, k := range gfKernels {
					got := bytes.Repeat([]byte{0x5a}, n)
					k.qParity(got, cols)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: length %d, %d columns, absent %v: syndrome differs from the sum of scaled columns", k.name, n, width, absent)
					}
				}
			}
		}
	}
}

func allPositions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestGFKernelsQuick(t *testing.T) {
	for _, k := range gfKernels {
		t.Run(k.name, func(t *testing.T) {
			mul := func(dst, src []byte, c byte) bool {
				n := min(len(dst), len(src))
				got, want := bytes.Clone(dst[:n]), bytes.Clone(dst[:n])
				k.mulInto(got, src[:n], c)
				refMulSliceInto(want, src[:n], c)
				return bytes.Equal(got, want)
			}
			if err := quick.Check(mul, nil); err != nil {
				t.Error(err)
			}
			div := func(buf []byte, c byte) bool {
				if c == 0 {
					c = 1
				}
				got, want := bytes.Clone(buf), bytes.Clone(buf)
				k.div(got, c)
				refDivSlice(want, c)
				return bytes.Equal(got, want)
			}
			if err := quick.Check(div, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// FuzzGFKernels runs every path against the byte loops at a fuzzed length,
// offset into the buffer (so every alignment), coefficient, column count
// and mask of absent columns.
func FuzzGFKernels(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(0), byte(0x53), uint8(14), uint32(0))
	f.Add(int64(2), uint16(257), uint8(3), byte(1), uint8(22), uint32(1<<21|1))
	f.Add(int64(3), uint16(31), uint8(63), byte(0), uint8(1), uint32(1))
	f.Fuzz(func(t *testing.T, seed int64, length uint16, off uint8, c byte, width uint8, absent uint32) {
		n, o, w := int(length%1024), int(off%64), 1+int(width%22)
		rng := rand.New(rand.NewSource(seed))
		src, dst := randColumn(rng, o+n)[o:], randColumn(rng, o+n)[o:]
		cols := make([][]byte, w)
		for pos := range cols {
			if absent>>pos&1 == 0 {
				cols[pos] = randColumn(rng, o+n)[o:]
			}
		}
		for _, k := range gfKernels {
			got, want := bytes.Clone(dst), bytes.Clone(dst)
			k.mulInto(got, src, c)
			refMulSliceInto(want, src, c)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: multiply-accumulate by %#x differs at length %d, offset %d", k.name, c, n, o)
			}
			if c != 0 {
				got, want = bytes.Clone(src), bytes.Clone(src)
				k.div(got, c)
				refDivSlice(want, c)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: divide by %#x differs at length %d, offset %d", k.name, c, n, o)
				}
			}
			got = bytes.Clone(dst)
			k.qParity(got, cols)
			if want := refQParity(n, cols); !bytes.Equal(got, want) {
				t.Fatalf("%s: syndrome of %d columns, absent mask %#x, differs at length %d, offset %d", k.name, w, absent, n, o)
			}
		}
	})
}

// TestGFKernelsZeroAlloc: no path allocates, the assembly included (a
// per-call slice of column pointers would).
func TestGFKernelsZeroAlloc(t *testing.T) {
	const n = 64 << 10
	dst, src := make([]byte, n), make([]byte, n)
	cols := make([][]byte, 22)
	for i := range cols {
		cols[i] = src
	}
	cols[3] = nil
	for _, k := range gfKernels {
		for name, fn := range map[string]func(){
			"multiply-accumulate": func() { k.mulInto(dst, src, 0x53) },
			"divide":              func() { k.div(dst, 0x53) },
			"Q syndrome":          func() { k.qParity(dst, cols) },
		} {
			if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
				t.Errorf("%s: %s allocates %v times per call", k.name, name, allocs)
			}
		}
	}
}

// The kernel benchmarks run once per path: 64 KB columns, rates over the
// bytes read.

func BenchmarkGFMulSliceInto(b *testing.B) {
	const n = 64 << 10
	dst, src := make([]byte, n), randColumn(rand.New(rand.NewSource(7)), n)
	for _, k := range gfKernels {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				k.mulInto(dst, src, 0x53)
			}
		})
	}
}

func BenchmarkGFDivSlice(b *testing.B) {
	const n = 64 << 10
	buf := randColumn(rand.New(rand.NewSource(9)), n)
	for _, k := range gfKernels {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				k.div(buf, 0x53)
			}
		})
	}
}

// BenchmarkQParityInto is the Q syndrome of a 16-wide Level 6 stripe: 14
// data columns of 64 KB.
func BenchmarkQParityInto(b *testing.B) {
	const n = 64 << 10
	rng := rand.New(rand.NewSource(8))
	cols := make([][]byte, 14)
	for i := range cols {
		cols[i] = randColumn(rng, n)
	}
	dst := make([]byte, n)
	for _, k := range gfKernels {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(cols)) * n)
			for i := 0; i < b.N; i++ {
				k.qParity(dst, cols)
			}
		})
	}
}
