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
// for all 256 coefficients against all 256 values.
func TestGFSliceKernelsAllCoefficients(t *testing.T) {
	src := allValues()
	for c := 0; c < 256; c++ {
		got, want := bytes.Repeat([]byte{0xa5}, len(src)), bytes.Repeat([]byte{0xa5}, len(src))
		gfMulSliceInto(got, src, byte(c))
		refMulSliceInto(want, src, byte(c))
		if !bytes.Equal(got, want) {
			t.Fatalf("gfMulSliceInto differs from the scalar product for coefficient %#x", c)
		}
		if c == 0 {
			continue // no division by zero
		}
		got, want = bytes.Clone(src), bytes.Clone(src)
		gfDivSlice(got, byte(c))
		refDivSlice(want, byte(c))
		if !bytes.Equal(got, want) {
			t.Fatalf("gfDivSlice differs from the scalar quotient for divisor %#x", c)
		}
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

// TestQParityIntoMatchesDefinition: the Horner syndrome equals the sum of
// scaled columns at every length from 0 to 70 (word loop, unrolled loop and
// byte tail), with absent columns at the top, the bottom and in between,
// and whatever dst held before.
func TestQParityIntoMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 0; n <= 70; n++ {
		for _, absent := range [][]int{nil, {0}, {13}, {3, 9}, {12, 13}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}} {
			cols := make([][]byte, 14)
			for pos := range cols {
				cols[pos] = randColumn(rng, n)
			}
			for _, pos := range absent {
				cols[pos] = nil
			}
			got := bytes.Repeat([]byte{0x5a}, n)
			qParityInto(got, cols)
			if want := refQParity(n, cols); !bytes.Equal(got, want) {
				t.Fatalf("length %d, absent %v: Horner syndrome differs from the sum of scaled columns", n, absent)
			}
		}
	}
}

func TestGFKernelsQuick(t *testing.T) {
	mul := func(dst, src []byte, c byte) bool {
		n := min(len(dst), len(src))
		got, want := bytes.Clone(dst[:n]), bytes.Clone(dst[:n])
		gfMulSliceInto(got, src[:n], c)
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
		gfDivSlice(got, c)
		refDivSlice(want, c)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(div, nil); err != nil {
		t.Error(err)
	}
}

func TestGFKernelsZeroAlloc(t *testing.T) {
	const n = 64 << 10
	dst, src := make([]byte, n), make([]byte, n)
	cols := make([][]byte, 14)
	for i := range cols {
		cols[i] = src
	}
	for name, fn := range map[string]func(){
		"gfMulSliceInto": func() { gfMulSliceInto(dst, src, 0x53) },
		"gfDivSlice":     func() { gfDivSlice(dst, 0x53) },
		"qParityInto":    func() { qParityInto(dst, cols) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s allocates %v times per call", name, allocs)
		}
	}
}

func BenchmarkGFMulSliceInto(b *testing.B) {
	const n = 64 << 10
	dst, src := make([]byte, n), randColumn(rand.New(rand.NewSource(7)), n)
	b.SetBytes(n)
	for i := 0; i < b.N; i++ {
		gfMulSliceInto(dst, src, 0x53)
	}
}

// BenchmarkQParityInto is the Q syndrome of a 16-wide Level 6 stripe: 14
// data columns of 64 KB; the rate is over the data bytes read.
func BenchmarkQParityInto(b *testing.B) {
	const n = 64 << 10
	rng := rand.New(rand.NewSource(8))
	cols := make([][]byte, 14)
	for i := range cols {
		cols[i] = randColumn(rng, n)
	}
	dst := make([]byte, n)
	b.SetBytes(int64(len(cols)) * n)
	for i := 0; i < b.N; i++ {
		qParityInto(dst, cols)
	}
}
