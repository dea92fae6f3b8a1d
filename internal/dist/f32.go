package dist

import "unsafe"

// Float32 storage: the mixed-precision half of the distance layer. A Matrix
// may carry a float32 mirror (Coords32) next to its float64 master. Points
// are then *stored* twice but *streamed* as float32 — halving the bytes
// every memory-bound scan reads — while every arithmetic step runs in
// float64: each coordinate is widened on load, and differences, squares and
// accumulations are all double precision.
//
// Equivalence contract: every scan and dot kernel is written once, generic
// over the storage element type (elem below), and widens with
// float64(·), which is a no-op on the master. Per row the mirror path
// therefore performs exactly the float64 operations, in exactly the order,
// that the master path performs on the widened row. A matrix whose master
// equals the widened mirror (vec's F32 storage mode keeps it so;
// quantization happens once, at dataset construction) gets bit-identical
// results from either storage — the mirror is purely a bandwidth
// optimization, never an extra rounding step. That is what keeps the
// repository's determinism story (index backends vs the linear oracle,
// parallel vs serial fills) intact in float32 mode.
//
// Storage is resolved once per kernel call, in the exported entry points,
// never per row: each picks the generic body's float32 or float64
// instantiation. The Go compiler stencils the two separately (their element
// sizes differ), so neither instantiation carries the other's code.
//
// The cached-norms identity of norms.go is deliberately not offered on the
// mirror: ‖a‖²+‖q‖²−2a·q cancels catastrophically when norms are large
// relative to the distance, and float32 storage is exactly the regime
// (large-magnitude embeddings) where that bites. UseCachedNorms is false
// for a mirror-carrying matrix, which keeps its callers on the plain
// kernels.

// elem is a storage element type: the float64 master or the float32 mirror.
type elem interface{ float32 | float64 }

// is32 reports whether E is the float32 mirror. The size is a constant in
// each instantiation, so branches on it compile away.
func is32[E elem]() bool {
	var z E
	return unsafe.Sizeof(z) == 4
}

// Generic kernels reach the assembly through direct calls that branch on
// is32 (a call through a function value would defeat //go:noescape and move
// the scans' stack blocks to the heap); the pointer conversions only restate
// E. dotGroupsAVX is that branch for the dot kernels' per-row calls.
func dotGroupsAVX[E elem](a *E, q *float64, groups int) float64 {
	if is32[E]() {
		return dotGroups32AVX((*float32)(unsafe.Pointer(a)), q, groups)
	}
	return dotGroups64AVX((*float64)(unsafe.Pointer(a)), q, groups)
}
