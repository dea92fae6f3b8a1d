// Package rhodbscan implements ρ-approximate DBSCAN (Gan & Tao, SIGMOD
// 2015), the state-of-the-art grid-based DBSCAN approximation the paper
// compares against.
//
// The algorithm imposes a grid of cell width ε/√d, so any two points in the
// same cell are within ε of each other. Core-point tests and cluster
// connectivity are answered with ρ-approximate range counting: points
// within ε always count, points beyond ε(1+ρ) never count, and points in
// the tolerance band count whenever their whole cell fits inside it. Core
// cells are connected into clusters through approximate bichromatic
// closest-pair tests, and border points attach to any in-range core point.
//
// Neighbor cells are located through the grid's kd-tree over cell centers;
// this keeps the structure functional in higher dimensions, where the
// original quadtree formulation exhausts memory (the behaviour Figure 6b
// reports).
package rhodbscan

import (
	"fmt"
	"math"

	"dbsvec/internal/cluster"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/fault"
	"dbsvec/internal/index/grid"
	"dbsvec/internal/unionfind"
	"dbsvec/internal/vec"
)

// Params configures a run.
type Params struct {
	// Eps and MinPts are the DBSCAN parameters.
	Eps    float64
	MinPts int
	// Rho is the approximation tolerance (paper default 0.001). Must be
	// >= 0.
	Rho float64
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if err := (dbscan.Params{Eps: p.Eps, MinPts: p.MinPts}).Validate(); err != nil {
		return fmt.Errorf("rhodbscan: %w", err)
	}
	if !(p.Rho >= 0) {
		return fmt.Errorf("%w: rhodbscan: rho %g must be non-negative", fault.ErrInvalidParams, p.Rho)
	}
	if p.Eps == 0 {
		return fmt.Errorf("%w: rhodbscan: eps must be positive (grid width is eps/sqrt(d))", fault.ErrInvalidParams)
	}
	return nil
}

// Stats reports work performed.
type Stats struct {
	// Cells is the number of occupied grid cells.
	Cells int
	// CoreCells is the number of cells containing at least one core point.
	CoreCells int
	// WholesaleCells counts cells whose population was counted without any
	// per-point distance computation.
	WholesaleCells int64
	// DistanceComputations counts point-to-point distance evaluations.
	DistanceComputations int64
}

// Run clusters ds with ρ-approximate DBSCAN.
func Run(ds *vec.Dataset, p Params) (*cluster.Result, Stats, error) {
	var st Stats
	if ds == nil {
		return nil, st, dbscan.ErrNilDataset
	}
	if err := p.Validate(); err != nil {
		return nil, st, err
	}
	n := ds.Len()
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = cluster.Noise
	}
	res := &cluster.Result{Labels: labels}
	if n == 0 {
		return res, st, nil
	}

	g, err := grid.New(ds, p.Eps/sqrtF(ds.Dim()))
	if err != nil {
		return nil, st, fmt.Errorf("rhodbscan: %w", err)
	}
	cells, rects := g.Cells, g.Rects
	st.Cells = len(cells)
	coreCell := make([]bool, len(cells)) // cell holds at least one core point

	outer := p.Eps * (1 + p.Rho)
	outer2 := outer * outer
	eps2 := p.Eps * p.Eps
	// Center-to-center reach: two cells can host an in-range pair only when
	// their centers are within outer + diag (diag = eps by construction).
	reach := outer + p.Eps

	// neighborsOf returns the cell indices within reach of cell ci.
	var nbuf []int32
	neighborsOf := func(ci int) []int32 {
		nbuf = g.Near(int32(ci), reach, nbuf[:0])
		return nbuf
	}

	// Phase 1: core-point marking with ρ-approximate counting.
	isCore := make([]bool, n)
	for ci, pts := range cells {
		if len(pts) >= p.MinPts {
			// Cell diameter <= eps: every member sees the whole cell.
			for _, id := range pts {
				isCore[id] = true
			}
			coreCell[ci] = true
			st.WholesaleCells++
			continue
		}
		nbs := neighborsOf(ci)
		for _, id := range pts {
			q := ds.Point(int(id))
			count := 0
			for _, nb := range nbs {
				minD2 := rects[nb].MinDist2(q)
				if minD2 > eps2 {
					continue
				}
				if rects[nb].MaxDist2(q) <= outer2 {
					count += len(cells[nb]) // tolerance-band wholesale count
					st.WholesaleCells++
				} else {
					st.DistanceComputations += int64(len(cells[nb]))
					count += ds.CountWithinIDs(q, eps2, cells[nb], 0)
				}
				if count >= p.MinPts {
					break
				}
			}
			if count >= p.MinPts {
				isCore[id] = true
				coreCell[ci] = true
			}
		}
	}

	// Phase 2: connect core cells through approximate closest-pair tests.
	dsu := unionfind.New(len(cells))
	for ci := range cells {
		if !coreCell[ci] {
			continue
		}
		nbs := neighborsOf(ci)
		for _, nb := range nbs {
			cj := int(nb)
			if cj <= ci || !coreCell[cj] || dsu.Same(int32(ci), int32(cj)) {
				continue
			}
			if coreCellsConnected(ds, g, ci, cj, isCore, outer2, &st) {
				dsu.Union(int32(ci), int32(cj))
			}
		}
	}
	for _, core := range coreCell {
		if core {
			st.CoreCells++
		}
	}

	// Phase 3: label core points by their cell's component; attach border
	// points to any in-range core point.
	for ci, pts := range cells {
		if !coreCell[ci] {
			continue
		}
		root := dsu.Find(int32(ci))
		for _, id := range pts {
			if isCore[id] {
				labels[id] = root
			}
		}
	}
	for ci, pts := range cells {
		for _, id := range pts {
			if isCore[id] || labels[id] != cluster.Noise {
				continue
			}
			q := ds.Point(int(id))
			nbs := neighborsOf(ci)
		attach:
			for _, nb := range nbs {
				if !coreCell[nb] || rects[nb].MinDist2(q) > outer2 {
					continue
				}
				for _, o := range cells[nb] {
					if !isCore[o] {
						continue
					}
					st.DistanceComputations++
					if ds.Dist2To(int(o), q) <= eps2 {
						labels[id] = labels[o]
						break attach
					}
				}
			}
		}
	}

	res.Compact()
	return res, st, nil
}

// coreCellsConnected reports whether core cells a and b contain core points
// within the ρ-tolerance radius of each other.
func coreCellsConnected(ds *vec.Dataset, g *grid.Grid, a, b int, isCore []bool, outer2 float64, st *Stats) bool {
	if g.Rects[a].MinDist2Rect(g.Rects[b]) > outer2 {
		return false
	}
	for _, p := range g.Cells[a] {
		if !isCore[p] {
			continue
		}
		pp := ds.Point(int(p))
		if g.Rects[b].MinDist2(pp) > outer2 {
			continue
		}
		for _, q := range g.Cells[b] {
			if !isCore[q] {
				continue
			}
			st.DistanceComputations++
			if ds.Dist2To(int(q), pp) <= outer2 {
				return true
			}
		}
	}
	return false
}

func sqrtF(d int) float64 {
	if d <= 0 {
		return 1
	}
	return math.Sqrt(float64(d))
}
