package dbscan

import (
	"context"

	"dbsvec/internal/cluster"
	"dbsvec/internal/engine"
	"dbsvec/internal/fault"
	"dbsvec/internal/index"
	"dbsvec/internal/unionfind"
	"dbsvec/internal/vec"
)

// RunParallel clusters ds with exact DBSCAN semantics using a two-phase
// parallel formulation (the disjoint-set approach of Patwary et al.):
//
//  1. every point's ε-neighborhood is materialized as one batch on the
//     shared execution engine, deciding core membership;
//  2. core points are unioned with their core neighbors (a connected-
//     components pass over the core graph), then each border point attaches
//     to its lowest-id core neighbor.
//
// The output is therefore identical to Run up to the usual border-point
// ambiguity (a border point within ε of two clusters may land in either).
// It does not depend on the index backend (no phase reads neighbor order)
// or on the worker count (the engine returns neighborhoods in point order
// and phases 2–3 are sequential). workers <= 0 selects GOMAXPROCS.
func RunParallel(ds *vec.Dataset, p Params, build index.CtxBuilder, workers int) (res *cluster.Result, st Stats, err error) {
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
		labels[i] = cluster.Noise
	}
	res = &cluster.Result{Labels: labels}
	if n == 0 {
		return res, st, nil
	}

	// Phase 1: batched neighborhood materialization + core test.
	idx, err := buildIndex(build, ds)
	if err != nil {
		return nil, st, err
	}
	sw := engine.StartPhase()
	hoods, err := index.Batch(idx).BatchRangeQuery(context.Background(), index.PointQueries(ds, nil), p.Eps, workers, nil)
	if err != nil {
		return nil, st, err
	}
	st.RangeQueries = int64(n)
	isCore := make([]bool, n)
	for i, h := range hoods {
		if len(h) >= p.MinPts {
			isCore[i] = true
			st.CorePoints++
		}
	}
	sw.Stop(&st.Phases.Init)

	// Phase 2: union core points with their core neighbors (sequential;
	// union-find dominates nothing next to phase 1).
	sw = engine.StartPhase()
	dsu := unionfind.New(n)
	for i := 0; i < n; i++ {
		if !isCore[i] {
			continue
		}
		for _, nb := range hoods[i] {
			if isCore[nb] {
				dsu.Union(int32(i), nb)
			}
		}
	}
	sw.Stop(&st.Phases.Expand)

	// Phase 3: label core components, then attach border points.
	sw = engine.StartPhase()
	for i := 0; i < n; i++ {
		if isCore[i] {
			labels[i] = dsu.Find(int32(i))
		}
	}
	for i := 0; i < n; i++ {
		if isCore[i] || len(hoods[i]) == 0 {
			continue
		}
		// The lowest-id core neighbor, whatever order the index returned.
		best := int32(-1)
		for _, nb := range hoods[i] {
			if isCore[nb] && (best < 0 || nb < best) {
				best = nb
			}
		}
		if best >= 0 {
			labels[i] = labels[best]
		}
	}
	res.Compact()
	sw.Stop(&st.Phases.Verify)
	return res, st, nil
}
