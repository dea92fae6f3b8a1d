// AVX fast paths for the distance and dot kernels, one entry point per
// operation and storage type.
//
// Lane contract, shared by every kernel in this file: each lane of a YMM
// accumulator is one of the scalar kernel's four partial sums s0..s3, so
// lane k only ever sees coordinates j ≡ k (mod 4), in ascending j. The
// float64 kernels load four coordinates with VMOVUPD; the float32 kernels
// widen four with VCVTPS2PD. The arithmetic is VSUBPD, VMULPD and VADDPD
// only — never FMA, whose single rounding would differ from the scalar
// multiply-then-add. The lanes combine as (s0+s1)+(s2+s3), in the scalar
// kernel's order, and the Go caller adds the d mod 4 tail afterwards. The
// results are therefore bit-identical to the pure-Go loops; only the
// instruction count changes. The four-row kernels interleave four rows with
// one accumulator each, which hides the FP-add latency without changing any
// row's order of operations; rows sit stride elements apart, so a caller
// whose d is not a multiple of four adds each row's tail itself. Every
// kernel that touches YMM state ends with VZEROUPPER.
//
// The kernels are written once as macros over the load instruction
// (LOAD64/LOAD32), the element width and the per-coordinate terms
// (SQTERM/DOTTERM); the TEXT blocks below only instantiate them.

#include "textflag.h"

#define LOAD64 VMOVUPD
#define LOAD32 VCVTPS2PD

// Squared-distance terms: Y4 holds four q coordinates.
#define SQTERM(y) VSUBPD Y4, y, y; VMULPD y, y, y
#define SQTERM4 SQTERM(Y5); SQTERM(Y6); SQTERM(Y7); SQTERM(Y8)

// Dot-product terms.
#define DOTTERM(y) VMULPD Y4, y, y
#define DOTTERM4 DOTTERM(Y5); DOTTERM(Y6); DOTTERM(Y7); DOTTERM(Y8)

// HSUM leaves (s0+s1)+(s2+s3) of accumulator y (whose low half is x) in the
// low lane of x, using xt and xu as scratch: xt = [s2, s3], xu.low = s1,
// x.low = s0+s1, xu.low = s3, xt.low = s2+s3, x.low = (s0+s1)+(s2+s3).
#define HSUM(y, x, xt, xu) \
	VEXTRACTF128 $1, y, xt; \
	VPERMILPD $1, x, xu;    \
	VADDSD xu, x, x;        \
	VPERMILPD $1, xt, xu;   \
	VADDSD xu, xt, xt;      \
	VADDSD xt, x, x

// GROUPS is the single-row kernel: func(a *E, q *float64, groups int)
// float64, with LOAD widening four elements of esize bytes.
#define GROUPS(LOAD, esize, TERM) \
	MOVQ a+0(FP), SI;       \
	MOVQ q+8(FP), BX;       \
	MOVQ groups+16(FP), CX; \
	VXORPD Y0, Y0, Y0;      \
grouploop:                  \
	LOAD (SI), Y5;          \
	VMOVUPD (BX), Y4;       \
	TERM(Y5);               \
	VADDPD Y5, Y0, Y0;      \
	ADDQ $(4*esize), SI;    \
	ADDQ $32, BX;           \
	DECQ CX;                \
	JNZ grouploop;          \
	HSUM(Y0, X0, X1, X2);   \
	VZEROUPPER;             \
	MOVSD X0, ret+24(FP);   \
	RET

// ROWS4 is the four-row kernel: func(a *E, q *float64, groups, stride,
// quads int, out *float64), rows esize bytes per element. R10, R11 and R12
// hold the row stride, three strides and one quad of rows, in bytes.
#define ROWS4(LOAD, shift, esize, TERM4) \
	MOVQ a+0(FP), SI;                  \
	MOVQ q+8(FP), DX;                  \
	MOVQ groups+16(FP), R8;            \
	MOVQ stride+24(FP), R10;           \
	MOVQ quads+32(FP), R9;             \
	MOVQ out+40(FP), DI;               \
	SHLQ $shift, R10;                  \
	LEAQ (R10)(R10*2), R11;            \
	MOVQ R10, R12;                     \
	SHLQ $2, R12;                      \
quadloop:                              \
	VXORPD Y0, Y0, Y0;                 \
	VXORPD Y1, Y1, Y1;                 \
	VXORPD Y2, Y2, Y2;                 \
	VXORPD Y3, Y3, Y3;                 \
	MOVQ SI, AX;                       \
	MOVQ DX, BX;                       \
	MOVQ R8, CX;                       \
grouploop:                             \
	VMOVUPD (BX), Y4;                  \
	LOAD (AX), Y5;                     \
	LOAD (AX)(R10*1), Y6;              \
	LOAD (AX)(R10*2), Y7;              \
	LOAD (AX)(R11*1), Y8;              \
	TERM4;                             \
	VADDPD Y5, Y0, Y0;                 \
	VADDPD Y6, Y1, Y1;                 \
	VADDPD Y7, Y2, Y2;                 \
	VADDPD Y8, Y3, Y3;                 \
	ADDQ $(4*esize), AX;               \
	ADDQ $32, BX;                      \
	DECQ CX;                           \
	JNZ grouploop;                     \
	ADDQ R12, SI;                      \
	HSUM(Y0, X0, X5, X6);              \
	MOVSD X0, (DI);                    \
	HSUM(Y1, X1, X5, X6);              \
	MOVSD X1, 8(DI);                   \
	HSUM(Y2, X2, X5, X6);              \
	MOVSD X2, 16(DI);                  \
	HSUM(Y3, X3, X5, X6);              \
	MOVSD X3, 24(DI);                  \
	ADDQ $32, DI;                      \
	DECQ R9;                           \
	JNZ quadloop;                      \
	VZEROUPPER;                        \
	RET

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	MOVL CX, BX
	ANDL $0x18000000, BX // OSXSAVE (bit 27) | AVX (bit 28)
	CMPL BX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX          // XMM and YMM state enabled by the OS
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET

// func sqDistGroups64AVX(a, q *float64, groups int) float64
TEXT ·sqDistGroups64AVX(SB), NOSPLIT, $0-32
	GROUPS(LOAD64, 8, SQTERM)

// func sqDistGroups32AVX(a *float32, q *float64, groups int) float64
TEXT ·sqDistGroups32AVX(SB), NOSPLIT, $0-32
	GROUPS(LOAD32, 4, SQTERM)

// func dotGroups64AVX(a, q *float64, groups int) float64
TEXT ·dotGroups64AVX(SB), NOSPLIT, $0-32
	GROUPS(LOAD64, 8, DOTTERM)

// func dotGroups32AVX(a *float32, q *float64, groups int) float64
TEXT ·dotGroups32AVX(SB), NOSPLIT, $0-32
	GROUPS(LOAD32, 4, DOTTERM)

// func sqDistsRows4x64AVX(a, q *float64, groups, stride, quads int, out *float64)
TEXT ·sqDistsRows4x64AVX(SB), NOSPLIT, $0-48
	ROWS4(LOAD64, 3, 8, SQTERM4)

// func sqDistsRows4x32AVX(a *float32, q *float64, groups, stride, quads int, out *float64)
TEXT ·sqDistsRows4x32AVX(SB), NOSPLIT, $0-48
	ROWS4(LOAD32, 2, 4, SQTERM4)

// func dotsRows4x64AVX(a, q *float64, groups, stride, quads int, out *float64)
TEXT ·dotsRows4x64AVX(SB), NOSPLIT, $0-48
	ROWS4(LOAD64, 3, 8, DOTTERM4)

// func dotsRows4x32AVX(a *float32, q *float64, groups, stride, quads int, out *float64)
TEXT ·dotsRows4x32AVX(SB), NOSPLIT, $0-48
	ROWS4(LOAD32, 2, 4, DOTTERM4)
