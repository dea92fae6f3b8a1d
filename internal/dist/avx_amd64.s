// AVX fast paths for the float64 and float32 distance and dot kernels.
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
// row's order of operations. Every kernel that touches YMM state ends with
// VZEROUPPER.

#include "textflag.h"

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
	MOVQ a+0(FP), SI
	MOVQ q+8(FP), BX
	MOVQ groups+16(FP), CX
	VXORPD Y0, Y0, Y0
grouploop64:
	VMOVUPD (SI), Y1
	VMOVUPD (BX), Y2
	VSUBPD Y2, Y1, Y1
	VMULPD Y1, Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ $32, SI
	ADDQ $32, BX
	DECQ CX
	JNZ grouploop64
	// Combine lanes as (s0+s1)+(s2+s3).
	VEXTRACTF128 $1, Y0, X1 // X1 = [s2, s3]
	VPERMILPD $1, X0, X2    // X2.low = s1
	VADDSD X2, X0, X0       // X0.low = s0+s1
	VPERMILPD $1, X1, X3    // X3.low = s3
	VADDSD X3, X1, X1       // X1.low = s2+s3
	VADDSD X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET

// func sqDistsRows4x64AVX(a, q *float64, groups, stride, quads int, out *float64)
TEXT ·sqDistsRows4x64AVX(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ q+8(FP), DX
	MOVQ groups+16(FP), R8
	MOVQ stride+24(FP), R10
	MOVQ quads+32(FP), R9
	MOVQ out+40(FP), DI
	SHLQ $3, R10             // row stride in bytes
	LEAQ (R10)(R10*2), R11   // 3*stride
	MOVQ R10, R12
	SHLQ $2, R12             // 4*stride: one quad of rows
quadloop64:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R8, CX
grouploop4x64:
	VMOVUPD (BX), Y4
	VMOVUPD (AX), Y5
	VMOVUPD (AX)(R10*1), Y6
	VMOVUPD (AX)(R10*2), Y7
	VMOVUPD (AX)(R11*1), Y8
	VSUBPD Y4, Y5, Y5
	VSUBPD Y4, Y6, Y6
	VSUBPD Y4, Y7, Y7
	VSUBPD Y4, Y8, Y8
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VMULPD Y8, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ CX
	JNZ grouploop4x64
	ADDQ R12, SI             // next quad of rows
	// Combine and store each row's lanes as (s0+s1)+(s2+s3).
	VEXTRACTF128 $1, Y0, X5
	VPERMILPD $1, X0, X6
	VADDSD X6, X0, X0
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5
	VADDSD X5, X0, X0
	MOVSD X0, (DI)
	VEXTRACTF128 $1, Y1, X5
	VPERMILPD $1, X1, X6
	VADDSD X6, X1, X1
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5
	VADDSD X5, X1, X1
	MOVSD X1, 8(DI)
	VEXTRACTF128 $1, Y2, X5
	VPERMILPD $1, X2, X6
	VADDSD X6, X2, X2
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5
	VADDSD X5, X2, X2
	MOVSD X2, 16(DI)
	VEXTRACTF128 $1, Y3, X5
	VPERMILPD $1, X3, X6
	VADDSD X6, X3, X3
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5
	VADDSD X5, X3, X3
	MOVSD X3, 24(DI)
	ADDQ $32, DI
	DECQ R9
	JNZ quadloop64
	VZEROUPPER
	RET

// func sqDistGroups32AVX(a *float32, q *float64, groups int) float64
TEXT ·sqDistGroups32AVX(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ q+8(FP), BX
	MOVQ groups+16(FP), CX
	VXORPD Y0, Y0, Y0
grouploop1:
	VCVTPS2PD (SI), Y1
	VMOVUPD (BX), Y2
	VSUBPD Y2, Y1, Y1
	VMULPD Y1, Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ $16, SI
	ADDQ $32, BX
	DECQ CX
	JNZ grouploop1
	// Combine lanes as (s0+s1)+(s2+s3).
	VEXTRACTF128 $1, Y0, X1 // X1 = [s2, s3]
	VPERMILPD $1, X0, X2    // X2.low = s1
	VADDSD X2, X0, X0       // X0.low = s0+s1
	VPERMILPD $1, X1, X3    // X3.low = s3
	VADDSD X3, X1, X1       // X1.low = s2+s3
	VADDSD X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET

// func dotGroups32AVX(a *float32, q *float64, groups int) float64
TEXT ·dotGroups32AVX(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ q+8(FP), BX
	MOVQ groups+16(FP), CX
	VXORPD Y0, Y0, Y0
dotgrouploop1:
	VCVTPS2PD (SI), Y1
	VMOVUPD (BX), Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ $16, SI
	ADDQ $32, BX
	DECQ CX
	JNZ dotgrouploop1
	// Combine lanes as (s0+s1)+(s2+s3).
	VEXTRACTF128 $1, Y0, X1 // X1 = [s2, s3]
	VPERMILPD $1, X0, X2    // X2.low = s1
	VADDSD X2, X0, X0       // X0.low = s0+s1
	VPERMILPD $1, X1, X3    // X3.low = s3
	VADDSD X3, X1, X1       // X1.low = s2+s3
	VADDSD X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET

// func sqDistsRows4x32AVX(a *float32, q *float64, groups, quads int, out *float64)
TEXT ·sqDistsRows4x32AVX(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ q+8(FP), DX
	MOVQ groups+16(FP), R8
	MOVQ quads+24(FP), R9
	MOVQ out+32(FP), DI
	MOVQ R8, R10
	SHLQ $4, R10             // row stride in bytes: groups*16 == dim*4
	LEAQ (R10)(R10*2), R11   // 3*stride
quadloop:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ DX, BX
	MOVQ R8, CX
grouploop4:
	VMOVUPD (BX), Y4
	VCVTPS2PD (SI), Y5
	VCVTPS2PD (SI)(R10*1), Y6
	VCVTPS2PD (SI)(R10*2), Y7
	VCVTPS2PD (SI)(R11*1), Y8
	VSUBPD Y4, Y5, Y5
	VSUBPD Y4, Y6, Y6
	VSUBPD Y4, Y7, Y7
	VSUBPD Y4, Y8, Y8
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VMULPD Y8, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $16, SI
	ADDQ $32, BX
	DECQ CX
	JNZ grouploop4
	ADDQ R11, SI             // SI sits at row 1 of this quad; skip rows 1..3
	// Combine and store each row's lanes as (s0+s1)+(s2+s3).
	VEXTRACTF128 $1, Y0, X5
	VPERMILPD $1, X0, X6
	VADDSD X6, X0, X0
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5
	VADDSD X5, X0, X0
	MOVSD X0, (DI)
	VEXTRACTF128 $1, Y1, X5
	VPERMILPD $1, X1, X6
	VADDSD X6, X1, X1
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5
	VADDSD X5, X1, X1
	MOVSD X1, 8(DI)
	VEXTRACTF128 $1, Y2, X5
	VPERMILPD $1, X2, X6
	VADDSD X6, X2, X2
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5
	VADDSD X5, X2, X2
	MOVSD X2, 16(DI)
	VEXTRACTF128 $1, Y3, X5
	VPERMILPD $1, X3, X6
	VADDSD X6, X3, X3
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5
	VADDSD X5, X3, X3
	MOVSD X3, 24(DI)
	ADDQ $32, DI
	DECQ R9
	JNZ quadloop
	VZEROUPPER
	RET

// func dotsRows4x32AVX(a *float32, q *float64, groups, quads int, out *float64)
TEXT ·dotsRows4x32AVX(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ q+8(FP), DX
	MOVQ groups+16(FP), R8
	MOVQ quads+24(FP), R9
	MOVQ out+32(FP), DI
	MOVQ R8, R10
	SHLQ $4, R10             // row stride in bytes: groups*16 == dim*4
	LEAQ (R10)(R10*2), R11   // 3*stride
dotquadloop:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ DX, BX
	MOVQ R8, CX
dotgrouploop4:
	VMOVUPD (BX), Y4
	VCVTPS2PD (SI), Y5
	VCVTPS2PD (SI)(R10*1), Y6
	VCVTPS2PD (SI)(R10*2), Y7
	VCVTPS2PD (SI)(R11*1), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $16, SI
	ADDQ $32, BX
	DECQ CX
	JNZ dotgrouploop4
	ADDQ R11, SI             // SI sits at row 1 of this quad; skip rows 1..3
	// Combine and store each row's lanes as (s0+s1)+(s2+s3).
	VEXTRACTF128 $1, Y0, X5
	VPERMILPD $1, X0, X6
	VADDSD X6, X0, X0
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5
	VADDSD X5, X0, X0
	MOVSD X0, (DI)
	VEXTRACTF128 $1, Y1, X5
	VPERMILPD $1, X1, X6
	VADDSD X6, X1, X1
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5
	VADDSD X5, X1, X1
	MOVSD X1, 8(DI)
	VEXTRACTF128 $1, Y2, X5
	VPERMILPD $1, X2, X6
	VADDSD X6, X2, X2
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5
	VADDSD X5, X2, X2
	MOVSD X2, 16(DI)
	VEXTRACTF128 $1, Y3, X5
	VPERMILPD $1, X3, X6
	VADDSD X6, X3, X3
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5
	VADDSD X5, X3, X3
	MOVSD X3, 24(DI)
	ADDQ $32, DI
	DECQ R9
	JNZ dotquadloop
	VZEROUPPER
	RET
