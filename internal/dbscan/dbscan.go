// Package dbscan implements exact DBSCAN (Ester et al., KDD 1996) exactly as
// written in Algorithm 1 of the DBSVEC paper, parameterized over any spatial
// index. Its output is the ground truth that the approximate algorithms in
// this repository are scored against.
package dbscan

import (
	"context"
	"errors"
	"fmt"

	"dbsvec/internal/cluster"
	"dbsvec/internal/engine"
	"dbsvec/internal/fault"
	"dbsvec/internal/index"
	"dbsvec/internal/vec"
)

// Params are the two classic DBSCAN parameters.
type Params struct {
	// Eps is the ε-neighborhood radius (Definition 1). Must be >= 0.
	Eps float64
	// MinPts is the density threshold (Definition 2), counting the point
	// itself. Must be >= 1.
	MinPts int
}

// Validate checks parameter sanity. Every rejection wraps
// fault.ErrInvalidParams, and a NaN eps fails the check.
func (p Params) Validate() error {
	if !(p.Eps >= 0) {
		return fmt.Errorf("%w: dbscan: eps %g must be non-negative", fault.ErrInvalidParams, p.Eps)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("%w: dbscan: MinPts %d must be at least 1", fault.ErrInvalidParams, p.MinPts)
	}
	return nil
}

// ErrNilDataset is returned when Run receives a nil dataset.
var ErrNilDataset = errors.New("dbscan: nil dataset")

// Stats reports work performed during a run.
type Stats struct {
	// RangeQueries is the number of ε-range queries issued; exact DBSCAN
	// issues exactly one per point.
	RangeQueries int64
	// CorePoints is the number of points satisfying the core condition.
	CorePoints int
	// Phases is the per-phase wall-clock breakdown; RunParallel fills it
	// (Init = neighborhood materialization, Expand = core-graph union,
	// Verify = border attachment), the sequential Run leaves it zero.
	Phases engine.PhaseTimes
}

// Run clusters ds with the given parameters using the index produced by
// build (the linear scan when nil). A panic inside the run (index
// construction included) is contained and returned as a
// *fault.WorkerPanicError; a failed build returns its error.
func Run(ds *vec.Dataset, p Params, build index.CtxBuilder) (res *cluster.Result, st Stats, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fault.AsWorkerPanic(v)
		}
	}()
	if ds == nil {
		return nil, st, ErrNilDataset
	}
	if err := p.Validate(); err != nil {
		return nil, st, err
	}
	if ds.Len() == 0 {
		return &cluster.Result{Labels: []int32{}}, st, nil
	}
	idx, err := buildIndex(build, ds)
	if err != nil {
		return nil, st, err
	}
	res, st.CorePoints = Expand(ds.Len(), p.MinPts, func(id int32, buf []int32) []int32 {
		st.RangeQueries++
		return idx.RangeQuery(ds.Point(int(id)), p.Eps, buf)
	})
	return res, st, nil
}

// Hood materializes the ε-neighborhood of point id, the point itself
// included, appended to buf (which arrives empty), and returns it. The
// returned slice is read before the next call and never retained.
type Hood func(id int32, buf []int32) []int32

// Expand is Algorithm 1's loop over points 0..n-1 with neighborhoods from
// hood: an unclassified point whose neighborhood holds at least minPts
// points seeds a new cluster, which grows through the seed stack S (lines
// 6-12) until no core point is left to expand. Points first judged noise
// become border points when a later cluster reaches them. It returns the
// labeling and the number of core points found. Exact DBSCAN, NQ-DBSCAN
// and DBSCAN-LSH differ only in their hood.
func Expand(n, minPts int, hood Hood) (res *cluster.Result, corePoints int) {
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = cluster.Unclassified
	}
	var cid int32 = -1
	var buf, seeds []int32
	for i := 0; i < n; i++ {
		if labels[i] != cluster.Unclassified {
			continue
		}
		buf = hood(int32(i), buf[:0])
		if len(buf) < minPts {
			labels[i] = cluster.Noise
			continue
		}
		// New cluster seeded at i.
		cid++
		corePoints++
		labels[i] = cid
		seeds = seeds[:0]
		for _, nb := range buf {
			if labels[nb] == cluster.Unclassified || labels[nb] == cluster.Noise {
				labels[nb] = cid
				seeds = append(seeds, nb)
			}
		}
		for len(seeds) > 0 {
			j := seeds[len(seeds)-1]
			seeds = seeds[:len(seeds)-1]
			buf = hood(j, buf[:0])
			if len(buf) < minPts {
				continue // j is a border point of cid
			}
			corePoints++
			for _, nb := range buf {
				switch labels[nb] {
				case cluster.Unclassified:
					labels[nb] = cid
					seeds = append(seeds, nb)
				case cluster.Noise:
					// Previously misjudged noise becomes a border point.
					labels[nb] = cid
				}
			}
		}
	}
	return &cluster.Result{Labels: labels, Clusters: int(cid) + 1}, corePoints
}

// buildIndex builds the run's index, the linear scan when build is nil.
func buildIndex(build index.CtxBuilder, ds *vec.Dataset) (index.Index, error) {
	if build == nil {
		build = index.Bind(index.NewLinear, 1)
	}
	return build(context.Background(), ds)
}

// CoreMask runs only the core-point test for every point and returns the
// boolean mask, batching the counting queries across all CPUs. Used by
// tests and metrics.
func CoreMask(ds *vec.Dataset, p Params, build index.CtxBuilder) ([]bool, error) {
	if ds == nil {
		return nil, ErrNilDataset
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	idx, err := buildIndex(build, ds)
	if err != nil {
		return nil, err
	}
	counts, err := index.Batch(idx).BatchRangeCount(context.Background(), index.PointQueries(ds, nil), p.Eps, p.MinPts, 0, nil)
	if err != nil {
		return nil, err
	}
	mask := make([]bool, ds.Len())
	for i := range mask {
		mask[i] = counts[i] >= p.MinPts
	}
	return mask, nil
}
