// Package rproj implements the random-projection cell backend for
// high-dimensional range queries. The build projects every point onto a
// handful of random Gaussian directions (one dense matrix product per
// direction through the dist dot kernels) and splits each direction at its
// median, giving every point a k-bit sign-pattern key; the occupied
// patterns seed a one-pass Lloyd refinement that reassigns every point to
// its nearest seed centroid, and the refined assignment is counting-sorted
// into flat cells in first-encounter order — the same arena layout as the
// lsh buckets, but Voronoi-coherent in the original
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
// kernels as the Linear oracle over a packed coordinate block (in the
// storage the dataset's scans stream: the half-width mirror in float32
// mode). The backend is exact: it returns the Linear oracle's id set
// for any input, any precision and any worker count, in cell order; the
// projections only decide how well cells separate, never which ids a query
// returns.
package rproj

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"

	"dbsvec/internal/dist"
	"dbsvec/internal/engine"
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

// pointStride is the number of points a build worker claims at a time in
// the per-point passes (projection, refinement, packing).
const pointStride = 1024

// Index is the built cell directory.
type Index struct {
	ds  *vec.Dataset
	dim int

	// Cell arena: cell c owns packed positions offsets[c]..offsets[c+1] and
	// idByPos maps a packed position back to its dataset id (ascending
	// within each cell, cells in first-encounter order of the build keys).
	offsets []int32
	idByPos []int32

	// Packed coordinate block in position order, so a cell scan is a
	// cache-linear FilterWithinRange.
	packed dist.Matrix

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
		dim:       d,
		slackCoef: 4 * float64(d+8) * 0x1p-53,
	}
	if n == 0 {
		x.offsets = []int32{0}
		return x, nil
	}
	workers = engine.ResolveWorkers(workers)
	k := p.projections(n)

	// Phase 1: project. One column of dots per direction, in chunks of rows;
	// each row's dot is independent of the chunk boundaries, so the columns
	// are bit-identical for every worker count (and across storage
	// precisions: the mirror's dots match the widened master's).
	rng := rand.New(rand.NewSource(p.Seed))
	proj := dist.Matrix{Coords: make([]float64, k*d), Dim: d}
	for j := range proj.Coords {
		proj.Coords[j] = rng.NormFloat64()
	}
	dots := make([]float64, k*n)
	m := ds.Matrix()
	engine.For(nil, workers, n, pointStride, func(lo, hi int) {
		for j := 0; j < k; j++ {
			col := dots[j*n : (j+1)*n]
			dist.DotsToRange(m, proj.Row(j), lo, hi, col[lo:hi])
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
	// back and the mixed cells empty out. The pass runs in chunks of points
	// with a fixed centroid matrix, so the assignment — and everything
	// downstream — stays bit-identical for every worker count.
	seeds := x.computeCentroids(m, workers)
	seedNorms := dist.Norms(seeds)
	engine.For(nil, workers, n, pointStride, func(lo, hi int) {
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

	// Phase 3: per-cell centroids and radii, one cell per chunk so workers
	// balance uneven occupancy. Both come from the float64 master
	// coordinates for either storage precision, so the float32 build prunes
	// identically to its widened twin. The radius upper bound absorbs the
	// (relative, the sums are cancellation-free) rounding of SqDist and the
	// sqrt.
	cells := len(x.offsets) - 1
	x.cent = x.computeCentroids(m, workers)
	x.radii = make([]float64, cells)
	engine.For(nil, workers, cells, 1, func(lo, hi int) {
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

	// Phase 4: pack coordinates in position order (disjoint row copies), in
	// the storage the dataset's scans stream, so scanned cells run the exact
	// same kernels as the Linear oracle.
	x.packed = m.Packed(n)
	engine.For(nil, workers, n, pointStride, func(lo, hi int) {
		x.packed.CopyRows(m, x.idByPos, lo, hi)
	})
	return x, nil
}

// computeCentroids returns the exact centroid of every cell in the current
// arena, accumulated from the float64 master coordinates in member order
// (ascending ids — the arena's layout), one cell per chunk so workers
// balance uneven occupancy. The per-cell sums are independent of the
// chunking, so the result is bit-identical for every worker count and
// storage precision.
func (x *Index) computeCentroids(m dist.Matrix, workers int) dist.Matrix {
	cells := len(x.offsets) - 1
	cent := dist.Matrix{Coords: make([]float64, cells*x.dim), Dim: x.dim}
	engine.For(nil, workers, cells, 1, func(lo, hi int) {
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
// first-encounter order (the same layout as the lsh bucket arenas).
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

// RangeQuery appends the ids of every point within eps of q to buf, in
// cell order. The id set is exactly the Linear oracle's: shortcut cells are
// taken only when the exact predicate provably agrees on every member, and
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
		buf = dist.FilterWithinRange(x.packed, q, eps2, lo, hi, buf)
		// The range kernels append packed positions; remap to dataset ids.
		for t := cellStart; t < len(buf); t++ {
			buf[t] = x.idByPos[buf[t]]
		}
	}
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
			count += dist.CountWithinRange(x.packed, q, eps2, lo, hi, rem)
		}
		if limit > 0 && count >= limit {
			return limit
		}
	}
	return count
}
