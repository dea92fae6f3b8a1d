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

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Eps < 0 {
		return fmt.Errorf("dbscan: eps %g must be non-negative", p.Eps)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("dbscan: MinPts %d must be at least 1", p.MinPts)
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
	n := ds.Len()
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = cluster.Unclassified
	}
	res = &cluster.Result{Labels: labels}
	if n == 0 {
		return res, st, nil
	}
	idx, err := buildIndex(build, ds)
	if err != nil {
		return nil, st, err
	}

	isCore := make([]bool, n)
	var cid int32 = -1
	var buf []int32
	// seeds is the expansion frontier S of the current cluster (Algorithm 1
	// lines 6-12), holding point ids still awaiting their range query.
	var seeds []int32

	for i := 0; i < n; i++ {
		if labels[i] != cluster.Unclassified {
			continue
		}
		buf = idx.RangeQuery(ds.Point(i), p.Eps, buf[:0])
		st.RangeQueries++
		if len(buf) < p.MinPts {
			labels[i] = cluster.Noise
			continue
		}
		// New cluster seeded at i.
		cid++
		isCore[i] = true
		st.CorePoints++
		labels[i] = cid
		seeds = seeds[:0]
		for _, nb := range buf {
			if nb == int32(i) {
				continue
			}
			if labels[nb] == cluster.Unclassified || labels[nb] == cluster.Noise {
				labels[nb] = cid
				seeds = append(seeds, nb)
			}
		}
		for len(seeds) > 0 {
			j := seeds[len(seeds)-1]
			seeds = seeds[:len(seeds)-1]
			buf = idx.RangeQuery(ds.Point(int(j)), p.Eps, buf[:0])
			st.RangeQueries++
			if len(buf) < p.MinPts {
				continue // j is a border point of cid
			}
			isCore[j] = true
			st.CorePoints++
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
	res.Clusters = int(cid) + 1
	return res, st, nil
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
	eng := engine.New(ds, idx, p.Eps, 0)
	counts, err := eng.AllCountsOwned(context.Background(), p.MinPts)
	if err != nil {
		return nil, err
	}
	mask := make([]bool, ds.Len())
	for i := range mask {
		mask[i] = counts[i] >= p.MinPts
	}
	return mask, nil
}
