// Package dist is the shared distance-kernel layer: every squared-Euclidean
// distance computed anywhere in this repository bottoms out in one of the
// kernels defined here. Distance evaluations dominate DBSCAN-family cost, so
// the loops in this package are the hottest code in the system and are
// written accordingly: the generic path is 4-way unrolled to break the
// floating-point add dependency chain, the ubiquitous d=2 and d=3 cases have
// branch-free specializations, and the one-to-many kernels fuse the distance
// loop with the radius test so candidate filtering never materializes a
// distance slice.
//
// The package sits below internal/vec: it operates on raw coordinate slices
// and the flat row-major Matrix view, imports nothing, and is re-exported
// through vec.Dataset convenience methods for callers that hold a dataset.
//
// Determinism contract: for a given pair of vectors every kernel in this
// package (except the cached-norms path in norms.go) performs the exact same
// floating-point operations in the exact same order as SqDist, so fused and
// batched kernels are bit-identical to per-pair calls. Range-query backends
// rely on this to stay bit-identical to the linear-scan oracle.
//
// Storage precision is decided here and nowhere above: a Matrix may carry a
// float32 mirror next to its float64 master, and every scan and dot kernel
// is written once, generic over the element type, streaming the mirror
// when it is present with bit-identical results (see f32.go).
//
// The AVX kernels (avx_amd64.s) keep the determinism contract through one
// lane contract shared by both storage precisions: each lane of a YMM
// accumulator is one of the scalar loop's four partial sums s0..s3, the
// arithmetic is VSUBPD/VMULPD/VADDPD (never FMA), the lanes combine as
// (s0+s1)+(s2+s3), and Go adds the d mod 4 tail. Where the CPU has AVX
// (hasAVX), the scan and dot kernels for d >= 4 run them (the float64
// distance gathers excepted, see sqDistsGather); the pure-Go loops
// stay as the path everywhere else and as the reference the tests hold the
// assembly to.
//
// Some kernels here are not distances: ExpInPlace (exp.go), math.Exp over a
// batch, four lanes at a time where the CPU allows, bit for bit math.Exp;
// and the SVDD solver's vector loops (smo.go), Axpy, NegScale and the SMO
// iteration's fused update-and-select pass, SMOPass, each bit for bit its
// Go loop; and index.Linear's zone-box test (boxes.go), NearBoxes, whose
// AVX body tests four boxes per instruction, bit for bit its Go loop.
package dist

import "math"

// SqDist returns the squared Euclidean distance ‖a−b‖² between two
// equal-length vectors. Small dimensions dispatch to the specialized
// kernels; the generic path is 4-way unrolled.
func SqDist(a, b []float64) float64 {
	switch len(a) {
	case 2:
		return SqDist2(a, b)
	case 3:
		return SqDist3(a, b)
	}
	return sqDistGeneric(a, b)
}

// SqDist2 is the d=2 specialization of SqDist (the dominant case for the
// paper's spatial workloads). Callers must pass slices of length >= 2.
func SqDist2(a, b []float64) float64 { return sqDist2(a, b) }

// SqDist3 is the d=3 specialization of SqDist. Callers must pass slices of
// length >= 3.
func SqDist3(a, b []float64) float64 { return sqDist3(a, b) }

// sqDistGeneric is the unrolled kernel behind SqDist for d not covered by a
// specialization. Four independent accumulators give the out-of-order core
// four parallel dependency chains instead of one serial chain of adds.
func sqDistGeneric(a, b []float64) float64 {
	n := len(a)
	b = b[:n] // one bounds check, then the loop body is check-free
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return sqDistTail(a, b, i, (s0+s1)+(s2+s3))
}

// Dist returns the Euclidean distance ‖a−b‖ between two equal-length
// vectors.
func Dist(a, b []float64) float64 { return math.Sqrt(SqDist(a, b)) }

// Dot returns the inner product a·b of two equal-length vectors, 4-way
// unrolled like SqDist.
func Dot(a, b []float64) float64 { return dotRow(a, b) }

// Norm2 returns the squared Euclidean norm ‖v‖².
func Norm2(v []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		s0 += v[i] * v[i]
		s1 += v[i+1] * v[i+1]
		s2 += v[i+2] * v[i+2]
		s3 += v[i+3] * v[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(v); i++ {
		s += v[i] * v[i]
	}
	return s
}

// Norm returns the Euclidean norm ‖v‖.
func Norm(v []float64) float64 { return math.Sqrt(Norm2(v)) }
