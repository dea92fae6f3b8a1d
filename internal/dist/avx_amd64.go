//go:build amd64

package dist

// hasAVX gates every assembly fast path of this package, float64 and
// float32 alike. The AVX kernels perform the same float64 operations in the
// same per-accumulator order as the pure-Go loops, so this is purely a
// dispatch decision; correctness never depends on it. It is a variable so
// the differential tests can switch it off and run the pure-Go reference.
var hasAVX = cpuHasAVX()

// Every declaration below carries //go:noescape: without it the compiler
// assumes the pointers escape, and each scan's 64-row stack block (whose
// address reaches out) moves to the heap on every call.

// cpuHasAVX reports CPUID AVX support with OS-enabled YMM state (XGETBV).
// Implemented in avx_amd64.s.
//
//go:noescape
func cpuHasAVX() bool

// sqDistGroups64AVX returns the partial squared distance (s0+s1)+(s2+s3)
// over the first 4*groups coordinates of one float64 row, exactly like
// sqDistGeneric's unrolled loop. groups must be >= 1. Implemented in
// avx_amd64.s.
//
//go:noescape
func sqDistGroups64AVX(a, q *float64, groups int) float64

// sqDistsRows4x64AVX writes, for quads blocks of four consecutive float64
// rows stride elements apart, each row's partial squared distance
// (s0+s1)+(s2+s3) over its first 4*groups coordinates to out (4*quads
// results). With stride == 4*groups these are the full distances; otherwise
// the caller adds the scalar tail. Four accumulator registers, one per row,
// keep each row's add order identical to the scalar kernel while hiding the
// FP-add latency. groups and quads must be >= 1. Implemented in avx_amd64.s.
//
//go:noescape
func sqDistsRows4x64AVX(a, q *float64, groups, stride, quads int, out *float64)

// sqDistGroups32AVX returns the partial squared distance (s0+s1)+(s2+s3)
// over the first 4*groups coordinates of one float32 row, widening each
// coordinate to float64 exactly like sqDistGeneric32's unrolled loop.
// groups must be >= 1. Implemented in avx_amd64.s.
//
//go:noescape
func sqDistGroups32AVX(a *float32, q *float64, groups int) float64

// sqDistsRows4x32AVX computes squared distances for quads blocks of four
// consecutive rows of width dim = 4*groups, writing 4*quads results to out:
// the widening sibling of sqDistsRows4x64AVX. groups and quads must be
// >= 1. Implemented in avx_amd64.s.
//
//go:noescape
func sqDistsRows4x32AVX(a *float32, q *float64, groups, quads int, out *float64)

// dotGroups32AVX returns the partial dot product (s0+s1)+(s2+s3) over the
// first 4*groups coordinates of one float32 row, widening each coordinate to
// float64 exactly like Dot32's unrolled loop. groups must be >= 1.
// Implemented in avx_amd64.s.
//
//go:noescape
func dotGroups32AVX(a *float32, q *float64, groups int) float64

// dotsRows4x32AVX computes dot products with q for quads blocks of four
// consecutive rows of width dim = 4*groups, writing 4*quads results to out:
// the dot-product sibling of sqDistsRows4x32AVX, identical layout and
// combine order. groups and quads must be >= 1. Implemented in avx_amd64.s.
//
//go:noescape
func dotsRows4x32AVX(a *float32, q *float64, groups, quads int, out *float64)
