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
// whose d is not a multiple of four adds each row's tail itself. They
// combine the four rows at once (COMBINE4: two VHADDPD, two VPERM2F128, one
// VADDPD), which adds the same pairs as the single-row HSUM and may swap
// only the operands of a commutative add, so every bit stays. Every kernel
// that touches YMM state ends with VZEROUPPER.
//
// Mask contract: the mask kernels run the four-row loop and, instead of
// storing the four distances, compare them with eps2 (VCMPPD LE_OQ: true
// for <=, false on NaN, exactly Go's <=) and store VMOVMSKPD's four bits as
// one byte per quad, bit k for row k. Only full distances may be tested, so
// the Go callers use them when d is a multiple of four.
//
// The kernels are written once as macros over the load instruction
// (LOAD64/LOAD32), the element width, the per-coordinate terms
// (SQTERM/DOTTERM) and the per-quad output (STORE4/MASK4); the TEXT blocks
// below only instantiate them.

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

// COMBINE4 leaves row k's (s0+s1)+(s2+s3) in lane k of Y0, from the
// accumulators Y0..Y3 of rows 0..3 (a, b, c, d), using Y1 and Y3 as scratch:
// VHADDPD pairs lanes within each 128-bit half, Y0 = [a01, b01, a23, b23]
// and Y2 = [c01, d01, c23, d23]; VPERM2F128 gathers the low halves,
// Y1 = [a01, b01, c01, d01], and the high halves, Y3 = [a23, b23, c23, d23];
// one VADDPD adds them. Every sum has HSUM's operands, so only the order
// within a commutative add may differ, which leaves every result's bits as
// they are.
#define COMBINE4 \
	VHADDPD Y1, Y0, Y0;           \
	VHADDPD Y3, Y2, Y2;           \
	VPERM2F128 $0x20, Y2, Y0, Y1; \
	VPERM2F128 $0x31, Y2, Y0, Y3; \
	VADDPD Y3, Y1, Y0

// ROWS4 is the four-row loop: func(a *E, q *float64, groups, stride, quads
// int, ...), rows esize bytes per element. R10, R11 and R12 hold the row
// stride, three strides and one quad of rows, in bytes. EMIT consumes each
// quad's four results in Y0 and advances the output cursor DI, which the
// TEXT block sets up.
#define ROWS4(LOAD, shift, esize, TERM4, EMIT) \
	MOVQ a+0(FP), SI;                  \
	MOVQ q+8(FP), DX;                  \
	MOVQ groups+16(FP), R8;            \
	MOVQ stride+24(FP), R10;           \
	MOVQ quads+32(FP), R9;             \
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
	COMBINE4;                          \
	EMIT;                              \
	DECQ R9;                           \
	JNZ quadloop;                      \
	VZEROUPPER;                        \
	RET

// STORE4 writes the quad's four results to out.
#define STORE4 VMOVUPD Y0, (DI); ADDQ $32, DI

// MASK4 writes one byte per quad to mask: bit k is set when row k's result
// is <= eps2, held broadcast in Y9. The predicate is LE_OQ: false on NaN,
// like Go's <=, and quiet.
#define MASK4 \
	VCMPPD $0x12, Y9, Y0, Y0; \
	VMOVMSKPD Y0, AX;         \
	MOVB AX, (DI);            \
	INCQ DI

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
	MOVQ out+40(FP), DI
	ROWS4(LOAD64, 3, 8, SQTERM4, STORE4)

// func sqDistsRows4x32AVX(a *float32, q *float64, groups, stride, quads int, out *float64)
TEXT ·sqDistsRows4x32AVX(SB), NOSPLIT, $0-48
	MOVQ out+40(FP), DI
	ROWS4(LOAD32, 2, 4, SQTERM4, STORE4)

// func dotsRows4x64AVX(a, q *float64, groups, stride, quads int, out *float64)
TEXT ·dotsRows4x64AVX(SB), NOSPLIT, $0-48
	MOVQ out+40(FP), DI
	ROWS4(LOAD64, 3, 8, DOTTERM4, STORE4)

// func dotsRows4x32AVX(a *float32, q *float64, groups, stride, quads int, out *float64)
TEXT ·dotsRows4x32AVX(SB), NOSPLIT, $0-48
	MOVQ out+40(FP), DI
	ROWS4(LOAD32, 2, 4, DOTTERM4, STORE4)

// func sqDistsMask4x64AVX(a, q *float64, groups, stride, quads int, eps2 float64, mask *uint8)
TEXT ·sqDistsMask4x64AVX(SB), NOSPLIT, $0-56
	MOVQ mask+48(FP), DI
	VBROADCASTSD eps2+40(FP), Y9
	ROWS4(LOAD64, 3, 8, SQTERM4, MASK4)

// func sqDistsMask4x32AVX(a *float32, q *float64, groups, stride, quads int, eps2 float64, mask *uint8)
TEXT ·sqDistsMask4x32AVX(SB), NOSPLIT, $0-56
	MOVQ mask+48(FP), DI
	VBROADCASTSD eps2+40(FP), Y9
	ROWS4(LOAD32, 2, 4, SQTERM4, MASK4)

// Four-lane exp: Go's math.Exp (exp_amd64.s, its FMA branch) run on four
// lanes of a YMM register.
//
// Lane contract: each lane performs exactly the instructions math.Exp's
// avxfma branch performs on one value, with the same constants, in the same
// order: k = round(x·LOG2E) (CVTPD2DQ, round to nearest even like CVTSD2SL),
// r = x − k·LN2U − k·LN2L (two fused VFNMADD231), r·1/16, the seven fused
// Horner steps, r·p, three rounds of y·(y+2) and a fused y·(y+2)+1, then the
// multiply by 2^k built from the exponent bits. The scalar code's special
// cases (NaN, ±Inf, overflow, a subnormal result) are exactly the inputs
// whose biased exponent k+1023 falls outside [1, 2046]; the kernel checks
// that range for all four lanes before it stores anything and stops at the
// first quad that fails, returning the number of quads written, so the Go
// caller runs math.Exp on that quad. Where math.Exp takes its non-FMA branch
// the lanes differ, which the init-time self-check in exp.go detects.

#define EXP4(off, v) \
	DATA expconst<>+(off)(SB)/8, v;    \
	DATA expconst<>+(off+8)(SB)/8, v;  \
	DATA expconst<>+(off+16)(SB)/8, v; \
	DATA expconst<>+(off+24)(SB)/8, v

EXP4(0, $1.4426950408889634073599246810018920)       // LOG2E
EXP4(32, $0.69314718055966295651160180568695068359375) // LN2U
EXP4(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
EXP4(96, $0.0625)
EXP4(128, $2.0)
EXP4(160, $1.0)
EXP4(192, $0.5)
EXP4(224, $1.6666666666666666667e-1)
EXP4(256, $4.1666666666666666667e-2)
EXP4(288, $8.3333333333333333333e-3)
EXP4(320, $1.3888888888888888889e-3)
EXP4(352, $1.9841269841269841270e-4)
EXP4(384, $2.4801587301587301587e-5)
DATA expconst<>+416(SB)/4, $1023 // exponent bias, four int32 lanes
DATA expconst<>+420(SB)/4, $1023
DATA expconst<>+424(SB)/4, $1023
DATA expconst<>+428(SB)/4, $1023
DATA expconst<>+432(SB)/4, $2047 // first biased exponent out of range
DATA expconst<>+436(SB)/4, $2047
DATA expconst<>+440(SB)/4, $2047
DATA expconst<>+444(SB)/4, $2047
GLOBL expconst<>(SB), RODATA|NOPTR, $448

// func cpuHasAVX2FMA() bool
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	ANDL $0x1000, CX // FMA (leaf 1, ECX bit 12)
	JZ   nofma
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX   // AVX2 (leaf 7, EBX bit 5)
	JZ   nofma
	MOVB $1, ret+0(FP)
	RET
nofma:
	MOVB $0, ret+0(FP)
	RET

// func expQuadsAVX(x *float64, quads int) int
TEXT ·expQuadsAVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ quads+8(FP), CX
	XORQ AX, AX
	VMOVUPD expconst<>+0(SB), Y7   // LOG2E
	VMOVUPD expconst<>+32(SB), Y8  // LN2U
	VMOVUPD expconst<>+64(SB), Y9  // LN2L
	VMOVUPD expconst<>+96(SB), Y10 // 1/16
	VMOVUPD expconst<>+128(SB), Y11 // 2
	VMOVUPD expconst<>+160(SB), Y12 // 1
	VMOVDQU expconst<>+416(SB), X13 // 1023
	VMOVDQU expconst<>+432(SB), X14 // 2047
	VPXOR X6, X6, X6
exploop:
	VMOVUPD (SI), Y0
	VMULPD Y7, Y0, Y1
	VCVTPD2DQY Y1, X2              // k
	VCVTDQ2PD X2, Y1
	VFNMADD231PD Y8, Y1, Y0        // r = x − k·LN2U
	VFNMADD231PD Y9, Y1, Y0        // r −= k·LN2L
	VMULPD Y10, Y0, Y0
	VMOVUPD expconst<>+384(SB), Y3
	VFMADD213PD expconst<>+352(SB), Y0, Y3
	VFMADD213PD expconst<>+320(SB), Y0, Y3
	VFMADD213PD expconst<>+288(SB), Y0, Y3
	VFMADD213PD expconst<>+256(SB), Y0, Y3
	VFMADD213PD expconst<>+224(SB), Y0, Y3
	VFMADD213PD expconst<>+192(SB), Y0, Y3
	VFMADD213PD Y12, Y0, Y3
	VMULPD Y3, Y0, Y0
	VADDPD Y11, Y0, Y3
	VMULPD Y3, Y0, Y0
	VADDPD Y11, Y0, Y3
	VMULPD Y3, Y0, Y0
	VADDPD Y11, Y0, Y3
	VMULPD Y3, Y0, Y0
	VADDPD Y11, Y0, Y3
	VFMADD213PD Y12, Y3, Y0        // y·(y+2) + 1
	VPADDD X13, X2, X2             // biased exponent
	VPCMPGTD X6, X2, X4            // > 0
	VPCMPGTD X2, X14, X5           // < 2047
	VPAND X5, X4, X4
	VMOVMSKPS X4, DX
	CMPQ DX, $15
	JNE  expdone
	VPMOVSXDQ X2, Y2
	VPSLLQ $52, Y2, Y2             // 2^k
	VMULPD Y2, Y0, Y0
	VMOVUPD Y0, (SI)
	ADDQ $32, SI
	INCQ AX
	CMPQ AX, CX
	JLT  exploop
expdone:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// SVDD solver kernels: elementwise loops, so the lane contract reduces to
// "each lane runs the Go loop's operations on its own entries": VSUBPD,
// VMULPD and VADDPD in the loop's order (only commutative operands may
// swap), never FMA.
//
// The SMO pass adds delta·(rowI−rowJ) to f and tracks, per lane, the
// minimum of f+pu and the maximum of f+pd with the index that first reached
// each. VMINPD(v, min) returns v only when v < min, and min on equality or
// NaN, which is the Go loop's strict comparison; VCMPPD LT_OQ (GT_OQ) gives
// the same verdict as the mask that blends the lane's index, carried as a
// float64 (exact below 2^53). So lane l holds the first index of its
// extremum among k ≡ l (mod 4), and reduceLanes joins the lanes in Go.

DATA smoconst<>+0(SB)/8, $0.0 // lane indices of the first quad
DATA smoconst<>+8(SB)/8, $1.0
DATA smoconst<>+16(SB)/8, $2.0
DATA smoconst<>+24(SB)/8, $3.0
DATA smoconst<>+32(SB)/8, $4.0 // index step per quad
DATA smoconst<>+40(SB)/8, $4.0
DATA smoconst<>+48(SB)/8, $4.0
DATA smoconst<>+56(SB)/8, $4.0
DATA smoconst<>+64(SB)/8, $0x7FF0000000000000 // +Inf: no minimum yet
DATA smoconst<>+72(SB)/8, $0x7FF0000000000000
DATA smoconst<>+80(SB)/8, $0x7FF0000000000000
DATA smoconst<>+88(SB)/8, $0x7FF0000000000000
DATA smoconst<>+96(SB)/8, $0xFFF0000000000000 // −Inf: no maximum yet
DATA smoconst<>+104(SB)/8, $0xFFF0000000000000
DATA smoconst<>+112(SB)/8, $0xFFF0000000000000
DATA smoconst<>+120(SB)/8, $0xFFF0000000000000
DATA smoconst<>+128(SB)/8, $-1.0 // no index yet
DATA smoconst<>+136(SB)/8, $-1.0
DATA smoconst<>+144(SB)/8, $-1.0
DATA smoconst<>+152(SB)/8, $-1.0
DATA smoconst<>+160(SB)/8, $0x8000000000000000 // sign bit
DATA smoconst<>+168(SB)/8, $0x8000000000000000
DATA smoconst<>+176(SB)/8, $0x8000000000000000
DATA smoconst<>+184(SB)/8, $0x8000000000000000
GLOBL smoconst<>(SB), RODATA|NOPTR, $192

// SMOSELECT is the selection of one quad of f, loaded in Y1: SI, R10 and R11
// point at f, pu and pd; Y10 holds the quad's indices; Y12/Y13 and Y14/Y15
// the lane minima/indices and maxima/indices. It advances the three pointers
// and the indices.
#define SMOSELECT \
	VADDPD (R10), Y1, Y3;               \
	VCMPPD $0x11, Y12, Y3, Y4;          \
	VMINPD Y12, Y3, Y12;                \
	VBLENDVPD Y4, Y10, Y13, Y13;        \
	VADDPD (R11), Y1, Y5;               \
	VCMPPD $0x1E, Y14, Y5, Y6;          \
	VMAXPD Y14, Y5, Y14;                \
	VBLENDVPD Y6, Y10, Y15, Y15;        \
	VADDPD smoconst<>+32(SB), Y10, Y10; \
	ADDQ $32, SI;                       \
	ADDQ $32, R10;                      \
	ADDQ $32, R11

#define SMOINIT \
	VMOVUPD smoconst<>+0(SB), Y10;   \
	VMOVUPD smoconst<>+64(SB), Y12;  \
	VMOVUPD smoconst<>+128(SB), Y13; \
	VMOVUPD smoconst<>+96(SB), Y14;  \
	VMOVUPD Y13, Y15

#define SMOSTORE \
	VMOVUPD Y12, (DI);   \
	VMOVUPD Y13, 32(DI); \
	VMOVUPD Y14, 64(DI); \
	VMOVUPD Y15, 96(DI); \
	VZEROUPPER;          \
	RET

// func smoPassAVX(f, rowI, rowJ, pu, pd *float64, delta float64, quads int, lanes *[16]float64)
TEXT ·smoPassAVX(SB), NOSPLIT, $0-64
	MOVQ f+0(FP), SI
	MOVQ rowI+8(FP), R8
	MOVQ rowJ+16(FP), R9
	MOVQ pu+24(FP), R10
	MOVQ pd+32(FP), R11
	VBROADCASTSD delta+40(FP), Y0
	MOVQ quads+48(FP), CX
	MOVQ lanes+56(FP), DI
	SMOINIT
passloop:
	VMOVUPD (R8), Y2
	VSUBPD (R9), Y2, Y2 // rowI − rowJ
	VMULPD Y0, Y2, Y2   // delta·(rowI − rowJ)
	VADDPD (SI), Y2, Y1 // f + delta·(rowI − rowJ)
	VMOVUPD Y1, (SI)
	ADDQ $32, R8
	ADDQ $32, R9
	SMOSELECT
	DECQ CX
	JNZ passloop
	SMOSTORE

// func smoSelectAVX(f, pu, pd *float64, quads int, lanes *[16]float64)
TEXT ·smoSelectAVX(SB), NOSPLIT, $0-40
	MOVQ f+0(FP), SI
	MOVQ pu+8(FP), R10
	MOVQ pd+16(FP), R11
	MOVQ quads+24(FP), CX
	MOVQ lanes+32(FP), DI
	SMOINIT
selectloop:
	VMOVUPD (SI), Y1
	SMOSELECT
	DECQ CX
	JNZ selectloop
	SMOSTORE

// func axpyAVX(a float64, x, y *float64, quads int)
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ quads+24(FP), CX
axpyloop:
	VMULPD (SI), Y0, Y1 // a·x
	VADDPD (DI), Y1, Y1 // y + a·x
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ axpyloop
	VZEROUPPER
	RET

// func negScaleAVX(x *float64, a float64, quads int)
TEXT ·negScaleAVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	VBROADCASTSD a+8(FP), Y0
	MOVQ quads+16(FP), CX
	VMOVUPD smoconst<>+160(SB), Y2
negloop:
	VXORPD (SI), Y2, Y1 // −x, exactly
	VMULPD Y0, Y1, Y1   // −x·a
	VMOVUPD Y1, (SI)
	ADDQ $32, SI
	DECQ CX
	JNZ negloop
	VZEROUPPER
	RET
