package raid

// The AVX2 form of the GF(256) slice operations (gf_amd64.s), 32 bytes per
// instruction where the portable form works 8 per 64-bit word:
//
//   - The Q syndrome is one pass over the stripe: for each 64-byte block of
//     dst, the accumulator stays in two registers while Horner's rule walks
//     every column from the highest position down.  Multiplying 32 field
//     elements by g is VPADDB (shift each byte left), VPCMPGTB against zero
//     (the bytes whose top bit fell off) and VPAND with 0x1d (the reduction);
//     a nil column is that multiply with no XOR.
//   - Multiplying by a coefficient c splits each byte into its two nibbles
//     and looks both up with VPSHUFB in c's two 16-entry tables, gfNibbles[c]:
//     c*v = c*(v & 15) ^ c*(v >> 4 << 4).
//
// The assembly takes whole blocks (64 bytes for Q, 32 for the others); the
// last few bytes of a slice go through the tables a byte at a time.  The
// form is chosen once, here, from CPUID: AVX2, with the YMM state enabled by
// the OS (XGETBV).

// gfNibbles[c] holds c times each low nibble, then c times each high nibble.
var gfNibbles [256][32]byte

func init() {
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // the XMM and YMM state
		return
	}
	if leaves, _, _, _ := cpuid(0, 0); leaves < 7 {
		return
	}
	if _, ebx7, _, _ := cpuid(7, 0); ebx7&(1<<5) == 0 { // AVX2
		return
	}
	for c := range gfNibbles {
		p := byte(c) // c * 2^k
		for k := 0; k < 8; k++ {
			for v := 0; v < 16; v++ {
				if v>>(k%4)&1 != 0 {
					gfNibbles[c][k/4*16+v] ^= p
				}
			}
			p = p<<1 ^ (p>>7)*0x1d
		}
	}
	gfKernels = append(gfKernels, gfKernel{"avx2", qParityVec, gfMulSliceVec, gfDivSliceVec})
	gf = gfKernels[len(gfKernels)-1]
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// qParityAVX2 computes Q into dst over len(dst)/64 whole blocks.  cols ends
// with a non-nil column, and every non-nil column is at least as long as dst.
//
//go:noescape
func qParityAVX2(dst []byte, cols [][]byte)

// gfMulXorAVX2 accumulates c*src into dst over len(src)/32 whole blocks;
// tab is gfNibbles[c] and dst is at least as long as src.
//
//go:noescape
func gfMulXorAVX2(tab *[32]byte, dst, src []byte)

// gfScaleAVX2 multiplies buf by c in place over len(buf)/32 whole blocks;
// tab is gfNibbles[c].
//
//go:noescape
func gfScaleAVX2(tab *[32]byte, buf []byte)

// qParityVec is qParityInto in AVX2.  A call with no column, or with one
// whose length differs from dst's, goes to the portable form, which clears
// dst or reports the mismatch as it always has.
func qParityVec(dst []byte, cols [][]byte) {
	top := len(cols) - 1
	for top >= 0 && cols[top] == nil {
		top--
	}
	for _, c := range cols[:top+1] {
		if c != nil && len(c) != len(dst) {
			top = -1
			break
		}
	}
	if top < 0 {
		qParityWords(dst, cols)
		return
	}
	cols = cols[:top+1]
	n := len(dst) &^ 63
	if n > 0 {
		qParityAVX2(dst[:n], cols)
	}
	for i := n; i < len(dst); i++ {
		acc := cols[top][i]
		for pos := top - 1; pos >= 0; pos-- {
			acc = gfMulTab[2][acc]
			if c := cols[pos]; c != nil {
				acc ^= c[i]
			}
		}
		dst[i] = acc
	}
}

// gfMulSliceVec is gfMulSliceInto in AVX2.  Unequal lengths and c = 0 go to
// the portable form, which reports the one and skips the other.
func gfMulSliceVec(dst, src []byte, c byte) {
	if len(dst) != len(src) || c == 0 {
		gfMulSliceWords(dst, src, c)
		return
	}
	n := len(src) &^ 31
	if n > 0 {
		gfMulXorAVX2(&gfNibbles[c], dst[:n], src[:n])
	}
	row := &gfMulTab[c]
	for i, v := range src[n:] {
		dst[n+i] ^= row[v]
	}
}

// gfDivSliceVec is gfDivSlice in AVX2: a multiply by 1/c.
func gfDivSliceVec(buf []byte, c byte) {
	inv := gfDiv(1, c)
	n := len(buf) &^ 31
	if n > 0 {
		gfScaleAVX2(&gfNibbles[inv], buf[:n])
	}
	row := &gfMulTab[inv]
	for i, v := range buf[n:] {
		buf[n+i] = row[v]
	}
}
