//go:build amd64

package dist

import "math"

// hasAVX gates every assembly fast path of this package, at both storage
// precisions. The AVX kernels perform the same float64 operations in the
// same per-accumulator order as the pure-Go loops, so this is purely a
// dispatch decision; correctness never depends on it. It is a variable so
// the differential tests can switch it off and run the pure-Go reference.
var hasAVX = cpuHasAVX()

// Every declaration below carries //go:noescape: without it the compiler
// assumes the pointers escape, and each scan's 64-row stack block (whose
// address reaches out) moves to the heap on every call. All are implemented
// in avx_amd64.s under its lane contract.

// cpuHasAVX reports CPUID AVX support with OS-enabled YMM state (XGETBV).
//
//go:noescape
func cpuHasAVX() bool

// sqDistGroups64AVX returns the partial squared distance (s0+s1)+(s2+s3)
// over the first 4*groups coordinates of one row, exactly like the unrolled
// Go loop. groups must be >= 1.
//
//go:noescape
func sqDistGroups64AVX(a, q *float64, groups int) float64

// sqDistGroups32AVX is sqDistGroups64AVX over a float32 row, widening each
// coordinate to float64.
//
//go:noescape
func sqDistGroups32AVX(a *float32, q *float64, groups int) float64

// sqDistsRows4x64AVX writes, for quads blocks of four consecutive rows
// stride elements apart, each row's partial squared distance
// (s0+s1)+(s2+s3) over its first 4*groups coordinates to out (4*quads
// results). With stride == 4*groups these are the full distances; otherwise
// the caller adds the scalar tail. Four accumulator registers, one per row,
// keep each row's add order identical to the scalar kernel while hiding the
// FP-add latency. groups and quads must be >= 1.
//
//go:noescape
func sqDistsRows4x64AVX(a, q *float64, groups, stride, quads int, out *float64)

// sqDistsRows4x32AVX is sqDistsRows4x64AVX over float32 rows.
//
//go:noescape
func sqDistsRows4x32AVX(a *float32, q *float64, groups, stride, quads int, out *float64)

// sqDistsMask4x64AVX is sqDistsRows4x64AVX with the radius test fused in:
// for each quad it writes one byte to mask whose bit k is set when row k's
// distance is <= eps2 (false on NaN, as Go's <=). Callers use it only when
// stride == 4*groups, where the partials are the full distances.
//
//go:noescape
func sqDistsMask4x64AVX(a, q *float64, groups, stride, quads int, eps2 float64, mask *uint8)

// sqDistsMask4x32AVX is sqDistsMask4x64AVX over float32 rows.
//
//go:noescape
func sqDistsMask4x32AVX(a *float32, q *float64, groups, stride, quads int, eps2 float64, mask *uint8)

// dotGroups64AVX is sqDistGroups64AVX for the dot product a·q.
//
//go:noescape
func dotGroups64AVX(a, q *float64, groups int) float64

// dotGroups32AVX is dotGroups64AVX over a float32 row.
//
//go:noescape
func dotGroups32AVX(a *float32, q *float64, groups int) float64

// dotsRows4x64AVX is sqDistsRows4x64AVX for the dot product a·q.
//
//go:noescape
func dotsRows4x64AVX(a, q *float64, groups, stride, quads int, out *float64)

// dotsRows4x32AVX is dotsRows4x64AVX over float32 rows.
//
//go:noescape
func dotsRows4x32AVX(a *float32, q *float64, groups, stride, quads int, out *float64)

// hasExpAVX gates ExpInPlace's four-lane kernel: the CPU must have AVX2 and
// FMA, and the kernel must reproduce math.Exp bit for bit on a fixed probe
// table (expSelfCheck). The check is what keeps the contract when math.Exp
// itself takes its non-FMA branch (GODEBUG=cpu.fma=off), which rounds
// differently. A variable so the tests can switch the kernel off.
var hasExpAVX = hasAVX && cpuHasAVX2FMA() && expSelfCheck(math.Exp)

// cpuHasAVX2FMA reports CPUID AVX2 and FMA support; the OS's YMM state is
// hasAVX's check.
//
//go:noescape
func cpuHasAVX2FMA() bool

// expQuadsAVX replaces x[0:4*quads] with math.Exp of each value, four lanes
// at a time, and returns the number of quads it wrote. It stops before the
// first quad with a lane whose result math.Exp does not compute on its
// normal path (NaN, ±Inf, overflow, a subnormal result), leaving that quad
// untouched. quads must be >= 1.
//
//go:noescape
func expQuadsAVX(x *float64, quads int) int

// axpyAVX adds a·x[k] to y[k] for the 4*quads values at x and y, the
// multiply rounded before the add, like Axpy's loop. quads must be >= 1.
//
//go:noescape
func axpyAVX(a float64, x, y *float64, quads int)

// negScaleAVX replaces the 4*quads values at x with −x[k]·a, like
// NegScale's loop. quads must be >= 1.
//
//go:noescape
func negScaleAVX(x *float64, a float64, quads int)

// smoPassAVX runs SMOPass's update and selection over the first 4*quads
// entries and leaves, per lane l, the lane's minimum of f+pu and its first
// index in lanes[l] and lanes[4+l], and the maximum of f+pd and its first
// index in lanes[8+l] and lanes[12+l] (±Inf and −1 where nothing
// qualified). quads must be >= 1.
//
//go:noescape
func smoPassAVX(f, rowI, rowJ, pu, pd *float64, delta float64, quads int, lanes *[16]float64)

// smoSelectAVX is smoPassAVX without the update.
//
//go:noescape
func smoSelectAVX(f, pu, pd *float64, quads int, lanes *[16]float64)

// nearBoxesAVX returns the near bits of the first 16*passes of the 64 boxes
// at bounds (NearBoxes's layout, d axes) against q and bound. d and passes
// must be >= 1 and passes <= 4.
//
//go:noescape
func nearBoxesAVX(bounds, q *float64, d, passes int, bound float64) uint64
