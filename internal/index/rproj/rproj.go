// Package rproj implements the random-projection cell backend for
// high-dimensional range queries. The build projects every point onto a
// handful of random Gaussian directions (one dense matrix product per
// direction through the dist dot kernels) and splits each direction at its
// median, giving every point a k-bit sign-pattern key; the occupied
// patterns seed a one-pass Lloyd refinement that reassigns every point to
// its nearest seed centroid, and the refined assignment is counting-sorted
// into flat cells in first-encounter order — the same arena layout as the
// grid's cells and the lsh buckets, but Voronoi-coherent in the original
// space, so the partition stays compact at dimensions where a spatial grid
// degenerates.
//
// Queries never touch the projections. Each cell carries its exact centroid
// and a conservative radius upper bound; a range query walks the cell
// directory and classifies every cell with the triangle inequality:
//
//	dist(q, centroid) - radius > eps  →  prune (no member can pass)
//	dist(q, centroid) + radius ≤ eps  →  take every member, no distances
//	otherwise                         →  exact scan of the packed cell block
//
// The centroid distance is evaluated through the cached-norms identity
// (‖c‖² + ‖q‖² − 2c·q) and widened into a [low, high] interval by the
// identity's documented error bound plus a relative slack that dwarfs every
// rounding effect, so both shortcuts are taken only when the exact kernels
// would agree on every member. Scanned cells run the same FilterWithinRange
// kernels as the Linear oracle over a packed coordinate block (the float32
// storage mode packs the half-width mirror and scans through the widening
// AVX kernels), and results are sorted ascending — the backend is exact and
// bit-identical to Linear for any input, any precision and any worker
// count; the projections only decide how well cells separate, never what a
// query returns.
package rproj

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"

	"dbsvec/internal/dist"
	"dbsvec/internal/engine"
	"dbsvec/internal/fault"
	"dbsvec/internal/index"
	"dbsvec/internal/vec"
)

// params configures the cell build; New uses the zero value and the
// package tests exercise the rest.
type params struct {
	// Projections is the number of random median-split directions — the
	// seed key is the k-bit sign pattern, so up to 2^k refinement seeds
	// (1..16); 0 derives it from TargetCells.
	Projections int
	// TargetCells is the approximate cell-count ceiling used to derive
	// Projections when it is 0: k = ceil(log2(TargetCells)). 0 selects
	// 4·√n, the usual balance between directory-walk overhead (grows with
	// cells) and scan width (shrinks with cells); the Lloyd refinement can
	// only lower the count (emptied seeds disappear).
	TargetCells int
	// Seed drives the random directions. The seed affects only how well the
	// partition separates the data — query results are exact regardless.
	Seed int64
}

const maxProjections = 16

// validate checks parameter sanity (after zero-value defaulting).
func (p params) validate() error {
	if p.Projections < 0 || p.Projections > maxProjections {
		return errors.New("rproj: Projections must be in [1, 16] (0 for default)")
	}
	if p.TargetCells < 0 {
		return errors.New("rproj: TargetCells must be non-negative")
	}
	return nil
}

// projections resolves the split count for an n-point build.
func (p params) projections(n int) int {
	if p.Projections > 0 {
		return p.Projections
	}
	target := p.TargetCells
	if target == 0 {
		target = int(4 * math.Sqrt(float64(n)))
	}
	k := 1
	for 1<<k < target && k < maxProjections {
		k++
	}
	return k
}

// ballSlack is the relative margin added around every centroid-distance
// bound and radius: ~1e5 times larger than the worst accumulated rounding
// at any supported dimension, and small enough (measure ~1e-9 of the eps
// shell) that it never costs a measurable number of extra scans. Cells
// inside the margin simply fall through to the exact scan, so correctness
// never depends on it — only the shortcut rate does.
const ballSlack = 1e-9

// Index is the built cell directory.
type Index struct {
	ds  *vec.Dataset
	f32 bool
	dim int

	// Cell arena: cell c owns packed positions offsets[c]..offsets[c+1] and
	// idByPos maps a packed position back to its dataset id (ascending
	// within each cell, cells in first-encounter order of the build keys).
	offsets []int32
	idByPos []int32

	// Packed coordinate block in position order — one contiguous matrix per
	// storage precision, so a cell scan is a cache-linear FilterWithinRange.
	packed   dist.Matrix
	packed32 dist.Matrix32

	// Per-cell ball bounds: exact centroids (always float64, computed from
	// the master coordinates), their cached norms, and a conservative upper
	// bound on the farthest member distance.
	cent      dist.Matrix
	centNorms []float64
	radii     []float64

	// slackCoef scales the cached-identity error bound for this dimension.
	slackCoef float64
}

// New builds the index over ds with default parameters using up to workers
// goroutines (<= 0 selects all CPUs). The built structure — cell order,
// packed layout, centroids and radii — is bit-identical for every worker
// count: the projection and packing passes write disjoint ranges whose
// contents do not depend on the partition, and the quantization and binning
// passes are serial. ctx is checked between build phases; on cancellation
// the partial structure is abandoned and ctx's error returned.
func New(ctx context.Context, ds *vec.Dataset, workers int) (*Index, error) {
	return newParams(ctx, ds, params{}, workers)
}

// newParams is New with explicit, non-default parameters.
func newParams(ctx context.Context, ds *vec.Dataset, p params, workers int) (*Index, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n, d := ds.Len(), ds.Dim()
	x := &Index{
		ds:        ds,
		f32:       ds.Precision() == vec.F32,
		dim:       d,
		slackCoef: 4 * float64(d+8) * 0x1p-53,
	}
	if n == 0 {
		x.offsets = []int32{0}
		return x, nil
	}
	workers = engine.ResolveWorkers(workers)
	k := p.projections(n)

	// Phase 1: project. One column of dots per direction, sharded over rows;
	// each row's dot is independent of the shard boundaries, so the columns
	// are bit-identical for every worker count (and across storage
	// precisions: the widening f32 kernels match the widened master).
	rng := rand.New(rand.NewSource(p.Seed))
	proj := dist.Matrix{Coords: make([]float64, k*d), Dim: d}
	for j := range proj.Coords {
		proj.Coords[j] = rng.NormFloat64()
	}
	dots := make([]float64, k*n)
	m, m32 := ds.Matrix(), ds.Matrix32()
	engine.ForRanges(workers, n, nil, func(lo, hi int) {
		for j := 0; j < k; j++ {
			col := dots[j*n : (j+1)*n]
			if x.f32 {
				dist.DotsToRange32(m32, proj.Row(j), lo, hi, col[lo:hi])
			} else {
				dist.DotsToRange(m, proj.Row(j), lo, hi, col[lo:hi])
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2: quantize and bin (serial). Each direction is split at its
	// median dot — one random hyperplane through the middle of the data —
	// and a point's cell key is its k-bit sign pattern. Median splits keep
	// every plane balanced regardless of outliers, and a pair of separated
	// clusters lands in different cells unless it agrees on all k planes
	// (vanishing for well-spread data), which is what keeps cells compact
	// enough for the ball bounds to prune. A two-pass counting sort scatters
	// ids into the flat arena in first-encounter cell order, ascending
	// within each cell.
	keys := make([]uint64, n)
	med := make([]float64, n)
	for j := 0; j < k; j++ {
		col := dots[j*n : (j+1)*n]
		copy(med, col)
		slices.Sort(med)
		split := med[n/2]
		for i, v := range col {
			if v >= split {
				keys[i] |= 1 << j
			}
		}
	}
	x.binKeys(keys)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2.5: refine. Sign cells separate well-spread clusters but mix
	// their projected tails (points whose pattern happens to match another
	// cluster's), which inflates the mixed cells' radii and defeats the
	// ball pruning exactly where it matters. One Lloyd half-step repairs
	// this in the original space: the sign cells act only as seeds — every
	// point is reassigned to its nearest seed centroid (argmin over
	// ‖c‖² − 2·p·c via one DotsToAll against the centroid matrix), making
	// the final cells Voronoi-coherent. Mixed seeds sit between clusters
	// with shrunken norms, so cluster-pure centroids win their own points
	// back and the mixed cells empty out. The pass is sharded over points
	// with a fixed centroid matrix, so the assignment — and everything
	// downstream — stays bit-identical for every worker count.
	seeds := x.computeCentroids(m, workers)
	seedNorms := dist.Norms(seeds)
	engine.ForRanges(workers, n, nil, func(lo, hi int) {
		scores := make([]float64, seeds.Len())
		for i := lo; i < hi; i++ {
			dist.DotsToAll(seeds, m.Row(i), scores)
			best, bestScore := 0, math.Inf(1)
			for c, dot := range scores {
				if s := seedNorms[c] - 2*dot; s < bestScore {
					best, bestScore = c, s
				}
			}
			keys[i] = uint64(best)
		}
	})
	x.binKeys(keys)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 3: per-cell centroids and radii, sharded over cells weighted by
	// occupancy. Both come from the float64 master coordinates for either
	// storage precision, so the float32 build prunes identically to its
	// widened twin. The radius upper bound absorbs the (relative, the sums
	// are cancellation-free) rounding of SqDist and the sqrt.
	cells := len(x.offsets) - 1
	x.cent = x.computeCentroids(m, workers)
	x.radii = make([]float64, cells)
	engine.ForRanges(workers, cells, func(c int) int64 {
		return int64(x.offsets[c+1]-x.offsets[c]) + 1
	}, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			crow := x.cent.Row(c)
			maxSq := 0.0
			for _, id := range x.idByPos[x.offsets[c]:x.offsets[c+1]] {
				if s := dist.SqDist(m.Row(int(id)), crow); s > maxSq {
					maxSq = s
				}
			}
			x.radii[c] = math.Sqrt(maxSq) * (1 + ballSlack)
		}
	})
	x.centNorms = dist.Norms(x.cent)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 4: pack coordinates in position order (disjoint row copies). The
	// query-time scan precision mirrors the dataset's, so scanned cells run
	// the exact same kernels as the Linear oracle.
	if x.f32 {
		x.packed32 = dist.Matrix32{Coords: make([]float32, n*d), Dim: d}
		engine.ForRanges(workers, n, nil, func(lo, hi int) {
			for pos := lo; pos < hi; pos++ {
				copy(x.packed32.Coords[pos*d:(pos+1)*d], m32.Row(int(x.idByPos[pos])))
			}
		})
	} else {
		x.packed = dist.Matrix{Coords: make([]float64, n*d), Dim: d}
		engine.ForRanges(workers, n, nil, func(lo, hi int) {
			for pos := lo; pos < hi; pos++ {
				copy(x.packed.Coords[pos*d:(pos+1)*d], m.Row(int(x.idByPos[pos])))
			}
		})
	}
	return x, nil
}

// computeCentroids returns the exact centroid of every cell in the current
// arena, accumulated from the float64 master coordinates in member order
// (ascending ids — the arena's layout), sharded over cells weighted by
// occupancy. The per-cell sums are independent of the sharding, so the
// result is bit-identical for every worker count and storage precision.
func (x *Index) computeCentroids(m dist.Matrix, workers int) dist.Matrix {
	cells := len(x.offsets) - 1
	cent := dist.Matrix{Coords: make([]float64, cells*x.dim), Dim: x.dim}
	engine.ForRanges(workers, cells, func(c int) int64 {
		return int64(x.offsets[c+1]-x.offsets[c]) + 1
	}, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			members := x.idByPos[x.offsets[c]:x.offsets[c+1]]
			crow := cent.Row(c)
			for _, id := range members {
				row := m.Row(int(id))
				for t := range crow {
					crow[t] += row[t]
				}
			}
			inv := 1 / float64(len(members))
			for t := range crow {
				crow[t] *= inv
			}
		}
	})
	return cent
}

// binKeys counting-sorts point ids by cell key, assigning cells in
// first-encounter order (the same layout as the grid's cells and the lsh
// bucket arenas).
func (x *Index) binKeys(keys []uint64) {
	slotOf := make(map[uint64]int32)
	slots := make([]int32, len(keys))
	var counts []int32
	for i, key := range keys {
		s, ok := slotOf[key]
		if !ok {
			s = int32(len(counts))
			slotOf[key] = s
			counts = append(counts, 0)
		}
		slots[i] = s
		counts[s]++
	}
	x.offsets = make([]int32, len(counts)+1)
	for s, c := range counts {
		x.offsets[s+1] = x.offsets[s] + c
	}
	x.idByPos = make([]int32, len(keys))
	next := counts // reuse as per-cell write cursors
	copy(next, x.offsets[:len(counts)])
	for i := range keys {
		s := slots[i]
		x.idByPos[next[s]] = int32(i)
		next[s]++
	}
}

// Len returns the number of indexed points.
func (x *Index) Len() int { return x.ds.Len() }

// Cells returns the number of occupied cells and the largest cell size —
// the balance diagnostics surfaced by the benchmarks.
func (x *Index) Cells() (cells, maxSize int) {
	cells = len(x.offsets) - 1
	for c := 0; c < cells; c++ {
		if size := int(x.offsets[c+1] - x.offsets[c]); size > maxSize {
			maxSize = size
		}
	}
	return cells, maxSize
}

// centBounds returns a certain interval around the true distance from q to
// cell c's centroid: the cached identity's value widened by its error bound
// and the relative slack.
func (x *Index) centBounds(c int, q []float64, qNorm float64) (dLo, dUp float64) {
	cn := x.centNorms[c]
	dot := dist.Dot(x.cent.Row(c), q)
	d2 := cn + qNorm - 2*dot
	slack := x.slackCoef * (cn + qNorm + 2*math.Abs(dot))
	lo2 := d2 - slack
	if lo2 < 0 {
		lo2 = 0
	}
	up2 := d2 + slack
	if up2 < 0 {
		up2 = 0
	}
	dLo = math.Sqrt(lo2) * (1 - ballSlack)
	dUp = math.Sqrt(up2) * (1 + ballSlack)
	return dLo, dUp
}

// RangeQuery appends the ids of every point within eps of q to buf, sorted
// ascending — bit-identical to the Linear oracle: shortcut cells are taken
// only when the exact predicate provably agrees on every member, and
// scanned cells run the oracle's own kernels.
func (x *Index) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	if len(x.idByPos) == 0 {
		return buf
	}
	if eps < 0 {
		eps = -eps // the predicate is on eps², like the oracle's
	}
	eps2 := eps * eps
	qNorm := dist.Norm2(q)
	pruneAt := eps * (1 + ballSlack)
	includeAt := eps * (1 - ballSlack)
	start := len(buf)
	cells := len(x.offsets) - 1
	for c := 0; c < cells; c++ {
		dLo, dUp := x.centBounds(c, q, qNorm)
		r := x.radii[c]
		if dLo-r > pruneAt {
			continue
		}
		lo, hi := int(x.offsets[c]), int(x.offsets[c+1])
		if dUp+r <= includeAt {
			buf = append(buf, x.idByPos[lo:hi]...)
			continue
		}
		cellStart := len(buf)
		if x.f32 {
			buf = dist.FilterWithinRange32(x.packed32, q, eps2, lo, hi, buf)
		} else {
			buf = dist.FilterWithinRange(x.packed, q, eps2, lo, hi, buf)
		}
		// The range kernels append packed positions; remap to dataset ids.
		for t := cellStart; t < len(buf); t++ {
			buf[t] = x.idByPos[buf[t]]
		}
	}
	slices.Sort(buf[start:])
	return buf
}

// RangeCount counts the points within eps of q, stopping early at limit
// (> 0) and returning at most limit, like the counting oracle.
func (x *Index) RangeCount(q []float64, eps float64, limit int) int {
	if len(x.idByPos) == 0 {
		return 0
	}
	if eps < 0 {
		eps = -eps
	}
	eps2 := eps * eps
	qNorm := dist.Norm2(q)
	pruneAt := eps * (1 + ballSlack)
	includeAt := eps * (1 - ballSlack)
	count := 0
	cells := len(x.offsets) - 1
	for c := 0; c < cells; c++ {
		dLo, dUp := x.centBounds(c, q, qNorm)
		r := x.radii[c]
		if dLo-r > pruneAt {
			continue
		}
		lo, hi := int(x.offsets[c]), int(x.offsets[c+1])
		if dUp+r <= includeAt {
			count += hi - lo
		} else {
			rem := 0
			if limit > 0 {
				rem = limit - count
			}
			if x.f32 {
				count += dist.CountWithinRange32(x.packed32, q, eps2, lo, hi, rem)
			} else {
				count += dist.CountWithinRange(x.packed, q, eps2, lo, hi, rem)
			}
		}
		if limit > 0 && count >= limit {
			return limit
		}
	}
	return count
}

// BatchRangeQuery is the native batched fan-out: deterministic contiguous
// query ranges through engine.ForRanges (results are per-query, so output
// is identical for every worker count), with the same panic containment
// and cancellation contract as the generic index fan-out.
func (x *Index) BatchRangeQuery(ctx context.Context, qs index.Queries, eps float64, workers int, out [][]int32) ([][]int32, error) {
	out = growSlices(out, qs.N)
	if err := x.batch(ctx, qs, workers, func(i int, q []float64) {
		out[i] = x.RangeQuery(q, eps, out[i][:0])
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchRangeCount is the counting analogue of BatchRangeQuery.
func (x *Index) BatchRangeCount(ctx context.Context, qs index.Queries, eps float64, limit, workers int, out []int) ([]int, error) {
	if cap(out) < qs.N {
		out = make([]int, qs.N)
	}
	out = out[:qs.N]
	if err := x.batch(ctx, qs, workers, func(i int, q []float64) {
		out[i] = x.RangeCount(q, eps, limit)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// batch runs fn(i, At(i)) for every query index across deterministic
// contiguous ranges. Worker panics surface as one *fault.WorkerPanicError
// (ForRanges re-panics the lowest range's; the recover boundary here
// converts it), and cancellation returns ctx's error with partial results
// discarded by the callers.
func (x *Index) batch(ctx context.Context, qs index.Queries, workers int, fn func(i int, q []float64)) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if qs.N == 0 {
		return ctx.Err()
	}
	workers = index.ClampWorkers(workers, qs.N)
	defer fault.RecoverTo(&err)
	engine.ForRanges(workers, qs.N, nil, func(lo, hi int) {
		fault.PanicNow(fault.WorkerPanic)
		var scratch []float64
		if qs.ScratchCap > 0 {
			scratch = make([]float64, 0, qs.ScratchCap)
		}
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i, qs.At(i, scratch))
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// growSlices extends out to length m, preserving existing entries (whose
// capacity the next batch reuses), mirroring the generic fan-out's helper.
func growSlices(out [][]int32, m int) [][]int32 {
	if cap(out) < m {
		out = append(out[:cap(out)], make([][]int32, m-cap(out))...)
	}
	return out[:m]
}
