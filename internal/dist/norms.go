package dist

// Cached-norms path: ‖a−q‖² = ‖a‖² + ‖q‖² − 2·a·q. With per-row norms
// precomputed once per dataset, a one-to-many evaluation costs one dot
// product per row instead of a subtract-square-accumulate, which wins for
// wide rows where the dot product's fused loop dominates. The identity
// reassociates the arithmetic, so results differ from SqDist at ULP scale —
// the cached path therefore is opt-in and never used by the range-query
// backends, whose outputs must stay bit-identical to the linear oracle (see
// the package determinism contract). SVDD kernel rows, which feed the
// results through exp() and a tolerance-based solver, use it for wide
// dimensions.

// normCachedMinDim is the row width from which the cached-norms path is
// worth using. Below it the plain kernel is both faster (no extra norm
// lookups, no clamping) and exact.
const normCachedMinDim = 16

// UseCachedNorms reports whether the cached-norms path pays on m: from
// normCachedMinDim on, and never on a matrix carrying a float32 mirror (see
// f32.go). Elsewhere callers use the plain kernels.
func UseCachedNorms(m Matrix) bool {
	return m.Dim >= normCachedMinDim && m.Coords32 == nil
}

// NormsIDs returns ‖row(id)‖² for each selected row, the per-dataset cache
// consumed by SqDistsToCached.
func NormsIDs(m Matrix, ids []int32) []float64 {
	out := make([]float64, len(ids))
	for k, id := range ids {
		out[k] = Norm2(m.Row(int(id)))
	}
	return out
}

// SqDistsToCached writes ‖row(ids[k]) − q‖² into out[k] using the cached
// norms identity. norms must be parallel to ids (norms[k] = ‖row(ids[k])‖²)
// and qNorm must equal Norm2(q). Negative results from cancellation are
// clamped to 0 since a squared distance cannot be negative. out must have
// length >= len(ids).
func SqDistsToCached(m Matrix, q []float64, qNorm float64, ids []int32, norms, out []float64) {
	for k, id := range ids {
		out[k] = cachedSqDist(norms[k], qNorm, Dot(m.Row(int(id)), q))
	}
}

// SqDistsToRangeCached is SqDistsToCached over the contiguous rows [lo, hi)
// of m, norms[k] = ‖row(lo+k)‖²: one batched DotsToRange pass, bit-identical
// to Dot per row, then the identity. Its results equal SqDistsToCached's
// over the same rows gathered by id.
func SqDistsToRangeCached(m Matrix, q []float64, qNorm float64, lo, hi int, norms, out []float64) {
	out = out[:hi-lo]
	DotsToRange(m, q, lo, hi, out)
	for k, dot := range out {
		out[k] = cachedSqDist(norms[k], qNorm, dot)
	}
}

// cachedSqDist is the identity ‖a‖² + ‖q‖² − 2a·q, clamped at 0.
func cachedSqDist(norm, qNorm, dot float64) float64 {
	d2 := norm + qNorm - 2*dot
	if d2 < 0 {
		d2 = 0
	}
	return d2
}
