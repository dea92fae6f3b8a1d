// Package lshdbscan implements the DBSCAN-LSH baseline (Li, Heinis & Luk,
// ADBIS 2016): DBSCAN whose ε-range queries are answered approximately from
// p-stable LSH buckets. Candidates are the points sharing at least one
// bucket with the query across L tables, filtered by an exact distance
// check; neighbors that never collide with the query are missed, which is
// the source of the recall loss the DBSVEC paper reports for this method.
// The clustering loop is dbscan.Expand over those approximate
// neighborhoods.
package lshdbscan

import (
	"fmt"

	"dbsvec/internal/cluster"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/dist"
	"dbsvec/internal/lsh"
	"dbsvec/internal/vec"
)

// Params configures a run.
type Params struct {
	// Eps and MinPts are the DBSCAN parameters.
	Eps    float64
	MinPts int
	// Hash configures the LSH structure. Zero values select L=8 tables of
	// k=2 functions with width eps — eight p-stable hash functions total,
	// matching the paper's experimental setup.
	Hash lsh.Params
}

// Stats reports work performed.
type Stats struct {
	// CandidateSum is the total number of LSH candidates inspected.
	CandidateSum int64
	// RangeQueries is the number of approximate range queries issued.
	RangeQueries int64
}

// Run clusters ds with DBSCAN-LSH.
func Run(ds *vec.Dataset, p Params) (*cluster.Result, Stats, error) {
	var st Stats
	if ds == nil {
		return nil, st, dbscan.ErrNilDataset
	}
	if err := (dbscan.Params{Eps: p.Eps, MinPts: p.MinPts}).Validate(); err != nil {
		return nil, st, fmt.Errorf("lshdbscan: %w", err)
	}
	hp := p.Hash
	if hp.Tables == 0 {
		hp.Tables = 8
	}
	if hp.Funcs == 0 {
		hp.Funcs = 2
	}
	if hp.Width == 0 {
		hp.Width = p.Eps
		if hp.Width <= 0 {
			hp.Width = 1
		}
	}
	if ds.Len() == 0 {
		return &cluster.Result{Labels: []int32{}}, st, nil
	}
	h, err := lsh.New(ds, hp)
	if err != nil {
		return nil, st, fmt.Errorf("lshdbscan: %w", err)
	}

	eps2 := p.Eps * p.Eps
	seen := make([]bool, ds.Len())
	var cand []int32
	res, _ := dbscan.Expand(ds.Len(), p.MinPts, func(id int32, buf []int32) []int32 {
		st.RangeQueries++
		q := ds.Point(int(id))
		cand = h.Candidates(q, cand[:0], seen)
		st.CandidateSum += int64(len(cand))
		return dist.FilterWithinIDs(ds.Matrix(), q, eps2, cand, buf)
	})
	return res, st, nil
}
