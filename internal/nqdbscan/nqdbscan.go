// Package nqdbscan implements the NQ-DBSCAN baseline (Chen et al., Pattern
// Recognition 2018): exact DBSCAN accelerated by a local neighborhood
// search over a cell grid that prunes unnecessary *distance computations*
// while — as the DBSVEC paper points out — still issuing a range query per
// point.
//
// Three NQ-style prunings are applied:
//
//  1. cells of width ε/√d with at least MinPts points are dense by
//     construction (cell diameter ≤ ε), so every member is a core point;
//     the run counts these cells in Stats.DenseCells but still issues every
//     member's range query, as the expansion loop needs its neighborhood;
//  2. each cell's candidate neighbor cells are located once through the
//     grid's kd-tree over cell centers and cached, so a range query only
//     inspects the local neighborhood instead of the whole grid;
//  3. range queries count whole cells wholesale when the cell rectangle
//     lies entirely within the query ball, computing point distances only
//     for straddling cells.
//
// The output is exactly DBSCAN's clustering: the run is dbscan.Expand over
// the cell searcher's neighborhoods.
package nqdbscan

import (
	"fmt"
	"math"

	"dbsvec/internal/cluster"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/dist"
	"dbsvec/internal/index/grid"
	"dbsvec/internal/vec"
)

// Params are the DBSCAN parameters.
type Params struct {
	Eps    float64
	MinPts int
}

// Stats reports work performed.
type Stats struct {
	// RangeQueries counts neighborhood materializations (one per point, as
	// in DBSCAN — NQ-DBSCAN does not reduce their number).
	RangeQueries int64
	// DenseCells is the number of cells holding at least MinPts points,
	// whose members are core by construction.
	DenseCells int
	// DistanceComputations counts point-to-point distance evaluations; the
	// quantity NQ-DBSCAN is designed to minimize.
	DistanceComputations int64
}

// cellSearcher answers exact ε-range queries through cached per-cell
// candidate lists.
type cellSearcher struct {
	ds        *vec.Dataset
	g         *grid.Grid
	eps2      float64
	reach     float64   // center-to-center search radius
	neighbors [][]int32 // per-cell candidate cells, filled on first use
	stats     *Stats
}

// query materializes the exact ε-neighborhood of point id into buf.
func (cs *cellSearcher) query(id int32, buf []int32) []int32 {
	cs.stats.RangeQueries++
	ci := cs.g.CellOf[id]
	nbs := cs.neighbors[ci]
	if nbs == nil {
		nbs = cs.g.Near(ci, cs.reach, nil)
		cs.neighbors[ci] = nbs
	}
	q := cs.ds.Point(int(id))
	rects, cells := cs.g.Rects, cs.g.Cells
	for _, nb := range nbs {
		rect := rects[nb]
		if rect.MinDist2(q) > cs.eps2 {
			continue
		}
		pts := cells[nb]
		if rect.MaxDist2(q) <= cs.eps2 {
			buf = append(buf, pts...) // wholesale: no distance computations
			continue
		}
		cs.stats.DistanceComputations += int64(len(pts))
		buf = dist.FilterWithinIDs(cs.ds.Matrix(), q, cs.eps2, pts, buf)
	}
	return buf
}

// Run clusters ds with NQ-DBSCAN. The result is identical to exact DBSCAN.
func Run(ds *vec.Dataset, p Params) (*cluster.Result, Stats, error) {
	var st Stats
	if ds == nil {
		return nil, st, dbscan.ErrNilDataset
	}
	if err := (dbscan.Params{Eps: p.Eps, MinPts: p.MinPts}).Validate(); err != nil {
		return nil, st, fmt.Errorf("nqdbscan: %w", err)
	}
	n := ds.Len()
	if n == 0 {
		return &cluster.Result{Labels: []int32{}}, st, nil
	}
	if p.Eps == 0 {
		// Degenerate grid width; fall back to plain exact DBSCAN.
		r, _, err := dbscan.Run(ds, dbscan.Params{Eps: p.Eps, MinPts: p.MinPts}, nil)
		return r, st, err
	}

	g, err := grid.New(ds, p.Eps/math.Sqrt(float64(ds.Dim())))
	if err != nil {
		return nil, st, fmt.Errorf("nqdbscan: %w", err)
	}
	// Pruning 1: dense cells are all-core.
	for _, pts := range g.Cells {
		if len(pts) >= p.MinPts {
			st.DenseCells++
		}
	}
	cs := &cellSearcher{
		ds:   ds,
		g:    g,
		eps2: p.Eps * p.Eps,
		// Two points within eps have cell centers within eps + 2·(diag/2);
		// diag = width·√d = eps by construction.
		reach:     2 * p.Eps,
		neighbors: make([][]int32, len(g.Cells)),
		stats:     &st,
	}
	res, _ := dbscan.Expand(n, p.MinPts, cs.query)
	return res, st, nil
}
