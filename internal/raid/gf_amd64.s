#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func qParityAVX2(dst []byte, cols [][]byte)
//
// For each 64-byte block: Y0:Y1 = the top column's block, then for every
// lower position Y0:Y1 = g*(Y0:Y1) ^ that column's block (no XOR for a nil
// column), then the block is stored.  R9 walks the column headers (24 bytes
// each) from the top down.
TEXT ·qParityAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ cols_base+24(FP), SI
	MOVQ cols_len+32(FP), DX
	SHRQ $6, CX
	JZ   qdone
	DECQ DX
	IMUL3Q $24, DX, DX         // the top column's header
	MOVL $0x1d, AX
	MOVQ AX, X13
	VPBROADCASTB X13, Y13      // the field polynomial's low byte
	VPXOR Y12, Y12, Y12        // zero
	XORQ R8, R8                // the block's offset

qblock:
	MOVQ DX, R9
	MOVQ (SI)(R9*1), R10
	VMOVDQU (R10)(R8*1), Y0
	VMOVDQU 32(R10)(R8*1), Y1
	SUBQ $24, R9
	JLT  qstore

qcol:
	VPCMPGTB Y0, Y12, Y2       // 0xff where the top bit is set
	VPCMPGTB Y1, Y12, Y3
	VPADDB   Y0, Y0, Y0
	VPADDB   Y1, Y1, Y1
	VPAND    Y13, Y2, Y2
	VPAND    Y13, Y3, Y3
	VPXOR    Y2, Y0, Y0
	VPXOR    Y3, Y1, Y1
	MOVQ     (SI)(R9*1), R10
	TESTQ    R10, R10
	JZ       qnext
	VPXOR    (R10)(R8*1), Y0, Y0
	VPXOR    32(R10)(R8*1), Y1, Y1

qnext:
	SUBQ $24, R9
	JGE  qcol

qstore:
	VMOVDQU Y0, (DI)(R8*1)
	VMOVDQU Y1, 32(DI)(R8*1)
	ADDQ    $64, R8
	DECQ    CX
	JNZ     qblock
	VZEROUPPER

qdone:
	RET

// func gfMulXorAVX2(tab *[32]byte, dst, src []byte)
TEXT ·gfMulXorAVX2(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	SHRQ $5, CX
	JZ   mdone
	VBROADCASTI128 (AX), Y6    // c times each low nibble, in both lanes
	VBROADCASTI128 16(AX), Y7  // c times each high nibble
	MOVL $0x0f, DX
	MOVQ DX, X8
	VPBROADCASTB X8, Y8

mloop:
	VMOVDQU (SI), Y0
	VPSRLQ  $4, Y0, Y1
	VPAND   Y8, Y0, Y0
	VPAND   Y8, Y1, Y1
	VPSHUFB Y0, Y6, Y0
	VPSHUFB Y1, Y7, Y1
	VPXOR   Y0, Y1, Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     mloop
	VZEROUPPER

mdone:
	RET

// func gfScaleAVX2(tab *[32]byte, buf []byte)
TEXT ·gfScaleAVX2(SB), NOSPLIT, $0-32
	MOVQ tab+0(FP), AX
	MOVQ buf_base+8(FP), DI
	MOVQ buf_len+16(FP), CX
	SHRQ $5, CX
	JZ   sdone
	VBROADCASTI128 (AX), Y6
	VBROADCASTI128 16(AX), Y7
	MOVL $0x0f, DX
	MOVQ DX, X8
	VPBROADCASTB X8, Y8

sloop:
	VMOVDQU (DI), Y0
	VPSRLQ  $4, Y0, Y1
	VPAND   Y8, Y0, Y0
	VPAND   Y8, Y1, Y1
	VPSHUFB Y0, Y6, Y0
	VPSHUFB Y1, Y7, Y1
	VPXOR   Y0, Y1, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     sloop
	VZEROUPPER

sdone:
	RET
