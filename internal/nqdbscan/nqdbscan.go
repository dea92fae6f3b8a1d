// Package nqdbscan implements the NQ-DBSCAN baseline (Chen et al., Pattern
// Recognition 2018): exact DBSCAN accelerated by a local neighborhood
// search over a cell grid that prunes unnecessary *distance computations*
// while — as the DBSVEC paper points out — still issuing a range query per
// point.
//
// Three NQ-style prunings are applied:
//
//  1. cells of width ε/√d with at least MinPts points are dense by
//     construction (cell diameter ≤ ε), so every member is a core point
//     without any counting query;
//  2. each cell's candidate neighbor cells are located once through a
//     kd-tree over cell centers and cached, so a range query only inspects
//     the local neighborhood instead of the whole grid directory;
//  3. range queries count whole cells wholesale when the cell rectangle
//     lies entirely within the query ball, computing point distances only
//     for straddling cells.
//
// The output is exactly DBSCAN's clustering.
package nqdbscan

import (
	"context"
	"fmt"
	"math"
	"sort"

	"dbsvec/internal/cluster"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/index/grid"
	"dbsvec/internal/index/kdtree"
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
	// DenseCells is the number of cells whose members were marked core
	// wholesale.
	DenseCells int
	// DistanceComputations counts point-to-point distance evaluations; the
	// quantity NQ-DBSCAN is designed to minimize.
	DistanceComputations int64
}

// cellSearcher answers exact ε-range queries through cached per-cell
// candidate lists.
type cellSearcher struct {
	ds        *vec.Dataset
	eps2      float64
	cells     [][]int32  // point ids per cell
	rects     []vec.Rect // cell rectangles
	pointCell []int32    // point id -> cell index
	centers   *kdtree.Tree
	centerDS  *vec.Dataset
	reach     float64 // center-to-center search radius
	neighbors [][]int32
	stats     *Stats
}

func newCellSearcher(ds *vec.Dataset, g *grid.Grid, eps float64, st *Stats) (*cellSearcher, error) {
	cs := &cellSearcher{
		ds:        ds,
		eps2:      eps * eps,
		pointCell: make([]int32, ds.Len()),
		stats:     st,
	}
	d := ds.Dim()
	// Collect and key-sort cells: map iteration order must not leak into
	// query result order (border-point ties would become nondeterministic).
	type keyed struct {
		key string
		pts []int32
	}
	var collected []keyed
	g.Cells(func(key string, pts []int32) {
		collected = append(collected, keyed{key: key, pts: pts})
	})
	sort.Slice(collected, func(a, b int) bool { return collected[a].key < collected[b].key })
	var centers []float64
	buf := make([]float64, d)
	for _, kc := range collected {
		idx := int32(len(cs.cells))
		cs.cells = append(cs.cells, kc.pts)
		rect := g.RectOfKey(kc.key)
		cs.rects = append(cs.rects, rect)
		centers = append(centers, rect.Center(buf)...)
		for _, id := range kc.pts {
			cs.pointCell[id] = idx
		}
	}
	centerDS, err := vec.NewDatasetUnchecked(centers, d)
	if err != nil {
		return nil, err
	}
	cs.centerDS = centerDS
	if cs.centers, err = kdtree.New(context.Background(), centerDS, 1); err != nil {
		return nil, err
	}
	// Two points within eps have cell centers within eps + 2·(diag/2);
	// diag = width·√d = eps by construction.
	cs.reach = 2 * eps
	cs.neighbors = make([][]int32, len(cs.cells))
	return cs, nil
}

// neighborCells returns (computing and caching on first use) the candidate
// cells for queries from cell ci.
func (cs *cellSearcher) neighborCells(ci int32) []int32 {
	if nb := cs.neighbors[ci]; nb != nil {
		return nb
	}
	nb := cs.centers.RangeQuery(cs.centerDS.Point(int(ci)), cs.reach, nil)
	if nb == nil {
		nb = []int32{}
	}
	cs.neighbors[ci] = nb
	return nb
}

// query materializes the exact ε-neighborhood of point id into buf.
func (cs *cellSearcher) query(id int32, buf []int32) []int32 {
	q := cs.ds.Point(int(id))
	for _, nb := range cs.neighborCells(cs.pointCell[id]) {
		rect := cs.rects[nb]
		if rect.MinDist2(q) > cs.eps2 {
			continue
		}
		pts := cs.cells[nb]
		if rect.MaxDist2(q) <= cs.eps2 {
			buf = append(buf, pts...) // wholesale: no distance computations
			continue
		}
		cs.stats.DistanceComputations += int64(len(pts))
		buf = cs.ds.FilterWithinIDs(q, cs.eps2, pts, buf)
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
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = cluster.Unclassified
	}
	res := &cluster.Result{Labels: labels}
	if n == 0 {
		return res, st, nil
	}
	if p.Eps == 0 {
		// Degenerate grid width; fall back to plain exact DBSCAN.
		r, _, err := dbscan.Run(ds, dbscan.Params{Eps: p.Eps, MinPts: p.MinPts}, nil)
		return r, st, err
	}

	width := p.Eps / math.Sqrt(float64(ds.Dim()))
	g, err := grid.New(context.Background(), ds, width, 1)
	if err != nil {
		return nil, st, fmt.Errorf("nqdbscan: %w", err)
	}
	cs, err := newCellSearcher(ds, g, p.Eps, &st)
	if err != nil {
		return nil, st, fmt.Errorf("nqdbscan: %w", err)
	}

	// Pruning 1: dense cells are all-core.
	isCore := make([]bool, n)
	for _, pts := range cs.cells {
		if len(pts) >= p.MinPts {
			st.DenseCells++
			for _, id := range pts {
				isCore[id] = true
			}
		}
	}

	var buf []int32
	query := func(id int32) []int32 {
		st.RangeQueries++
		buf = cs.query(id, buf[:0])
		return buf
	}

	var cid int32 = -1
	var seeds []int32
	for i := 0; i < n; i++ {
		if labels[i] != cluster.Unclassified {
			continue
		}
		nb := query(int32(i))
		if len(nb) < p.MinPts {
			labels[i] = cluster.Noise
			continue
		}
		cid++
		labels[i] = cid
		seeds = seeds[:0]
		for _, j := range nb {
			if j == int32(i) {
				continue
			}
			if labels[j] == cluster.Unclassified || labels[j] == cluster.Noise {
				labels[j] = cid
				seeds = append(seeds, j)
			}
		}
		for len(seeds) > 0 {
			j := seeds[len(seeds)-1]
			seeds = seeds[:len(seeds)-1]
			nb := query(j)
			if len(nb) < p.MinPts {
				continue
			}
			for _, q := range nb {
				switch labels[q] {
				case cluster.Unclassified:
					labels[q] = cid
					seeds = append(seeds, q)
				case cluster.Noise:
					labels[q] = cid
				}
			}
		}
	}
	res.Clusters = int(cid) + 1
	return res, st, nil
}
