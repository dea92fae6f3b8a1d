// Package grid implements the hashed cell grid that underpins the
// ρ-approximate DBSCAN baseline (Gan & Tao, SIGMOD 2015) and serves as a
// general exact range-query index in low dimensions.
//
// Points are bucketed into axis-aligned cells of a fixed width. Cells are
// stored sparsely in a hash map keyed by their integer coordinates, so
// memory is proportional to the number of *occupied* cells, not the volume
// of the data space. Neighbor enumeration switches between offset
// enumeration ((2k+1)^d candidates) and scanning the cell directory,
// whichever is smaller — the directory scan keeps the structure functional
// in high dimensions where offset enumeration explodes, while preserving
// the characteristic exponential cost growth the paper reports.
package grid

import (
	"context"
	"encoding/binary"
	"math"
	"sync"

	"dbsvec/internal/engine"
	"dbsvec/internal/index"
	"dbsvec/internal/vec"
)

// Grid buckets dataset points into cells of side Width.
type Grid struct {
	ds     *vec.Dataset
	width  float64
	origin []float64 // per-dimension minimum, anchors cell 0
	cells  map[string][]int32
	coords map[string][]int32 // cell key -> integer cell coordinates
	order  []string           // cell keys in first-encounter (ascending id) order
}

// New builds a grid over ds with the given cell width using up to workers
// goroutines (<= 0 selects all CPUs). Width must be positive; callers
// typically pass eps/sqrt(d) so that any two points in the same cell are
// within eps of each other. A non-positive width is a caller bug and panics.
//
// Binning is a two-pass counting sort: pass one computes every point's cell
// key in parallel (the float math dominates the build), pass two bins ids
// serially in ascending order into one flat slice the cell map slices into.
// Cell contents, directory and origin are bit-identical to the serial build
// for every worker count. ctx is checked at entry and between the passes; a
// cancelled build returns ctx's error.
func New(ctx context.Context, ds *vec.Dataset, width float64, workers int) (*Grid, error) {
	if width <= 0 {
		panic("grid: cell width must be positive")
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	workers = engine.ResolveWorkers(workers)
	g := &Grid{
		ds:     ds,
		width:  width,
		cells:  make(map[string][]int32),
		coords: make(map[string][]int32),
	}
	g.origin = boundsLo(ds, workers)
	if g.origin == nil {
		g.origin = make([]float64, ds.Dim())
	}
	n, d := ds.Len(), ds.Dim()
	if n == 0 {
		return g, nil
	}
	kw := 4 * d // key width in bytes
	keys := make([]byte, n*kw)
	engine.ForRanges(workers, n, nil, func(lo, hi int) {
		cc := make([]int32, d)
		for i := lo; i < hi; i++ {
			g.cellCoords(ds.Point(i), cc)
			for j, c := range cc {
				binary.LittleEndian.PutUint32(keys[i*kw+4*j:], uint32(c))
			}
		}
	})
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	// Serial binning pass: assign cell slots in first-encounter order and
	// count, then place ids ascending into a flat arena shared by all cells
	// (one allocation instead of one append chain per cell).
	slotOf := make(map[string]int)
	var slotKey []string
	var counts []int32
	for i := 0; i < n; i++ {
		k := keys[i*kw : (i+1)*kw]
		slot, ok := slotOf[string(k)]
		if !ok {
			slot = len(slotKey)
			slotOf[string(k)] = slot
			slotKey = append(slotKey, string(k))
			counts = append(counts, 0)
		}
		counts[slot]++
	}
	offsets := make([]int32, len(counts)+1)
	for s, c := range counts {
		offsets[s+1] = offsets[s] + c
	}
	flat := make([]int32, n)
	cursor := append([]int32(nil), offsets[:len(counts)]...)
	for i := 0; i < n; i++ {
		slot := slotOf[string(keys[i*kw:(i+1)*kw])]
		flat[cursor[slot]] = int32(i)
		cursor[slot]++
	}
	for s, k := range slotKey {
		g.cells[k] = flat[offsets[s]:offsets[s+1]:offsets[s+1]]
		cc := make([]int32, d)
		for j := range cc {
			cc[j] = int32(binary.LittleEndian.Uint32([]byte(k)[4*j:]))
		}
		g.coords[k] = cc
	}
	g.order = slotKey
	return g, nil
}

// ctxErr is ctx.Err() for a possibly nil ctx.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// boundsLo returns the per-dimension minimum over all points, computed over
// parallel shards. Min is associative and commutative over the finite
// coordinates a Dataset admits, so the shard merge is order-insensitive and
// the result matches Dataset.Bounds exactly.
func boundsLo(ds *vec.Dataset, workers int) []float64 {
	n, d := ds.Len(), ds.Dim()
	if n == 0 {
		return nil
	}
	bounds := engine.Ranges(workers, n)
	los := make([][]float64, len(bounds)-1)
	var wg sync.WaitGroup
	for r := 0; r+1 < len(bounds); r++ {
		r, lo, hi := r, bounds[r], bounds[r+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sl := make([]float64, d)
			copy(sl, ds.Point(lo))
			for i := lo + 1; i < hi; i++ {
				p := ds.Point(i)
				for j, v := range p {
					if v < sl[j] {
						sl[j] = v
					}
				}
			}
			los[r] = sl
		}()
	}
	wg.Wait()
	out := los[0]
	for _, sl := range los[1:] {
		for j, v := range sl {
			if v < out[j] {
				out[j] = v
			}
		}
	}
	return out
}

// Width returns the cell side length.
func (g *Grid) Width() float64 { return g.width }

// Len returns the number of indexed points.
func (g *Grid) Len() int { return g.ds.Len() }

// NumCells returns the number of occupied cells.
func (g *Grid) NumCells() int { return len(g.cells) }

// cellCoords writes the integer cell coordinates of p into dst.
func (g *Grid) cellCoords(p []float64, dst []int32) {
	for j, v := range p {
		dst[j] = int32(math.Floor((v - g.origin[j]) / g.width))
	}
}

// CellOf returns the key of the cell containing p.
func (g *Grid) CellOf(p []float64) string {
	cc := make([]int32, len(p))
	g.cellCoords(p, cc)
	return key(cc)
}

// Points returns the ids bucketed in the cell with the given key.
func (g *Grid) Points(cellKey string) []int32 { return g.cells[cellKey] }

// Cells iterates over every occupied cell in first-encounter (ascending id)
// order, passing its key and point ids. The order is a build invariant, not
// map iteration order, so repeated walks and walks over identically built
// grids agree.
func (g *Grid) Cells(fn func(key string, pts []int32)) {
	for _, k := range g.order {
		fn(k, g.cells[k])
	}
}

func key(cc []int32) string {
	b := make([]byte, 4*len(cc))
	for j, c := range cc {
		binary.LittleEndian.PutUint32(b[4*j:], uint32(c))
	}
	return string(b)
}

// CellRect returns the bounding rectangle of the cell with integer
// coordinates cc.
func (g *Grid) CellRect(cc []int32) vec.Rect {
	d := len(cc)
	lo := make([]float64, d)
	hi := make([]float64, d)
	for j, c := range cc {
		lo[j] = g.origin[j] + float64(c)*g.width
		hi[j] = lo[j] + g.width
	}
	return vec.Rect{Lo: lo, Hi: hi}
}

// RectOfKey returns the bounding rectangle of the cell with the given key.
func (g *Grid) RectOfKey(k string) vec.Rect { return g.CellRect(g.coords[k]) }

// NeighborCells invokes fn for every occupied cell whose rectangle is within
// Euclidean distance radius of point q (including q's own cell). fn receives
// the cell key, its point ids, and the squared min/max distance from q to
// the cell rectangle. Enumeration strategy is chosen by cost: offset
// enumeration when (2k+1)^d is small, otherwise a scan of the cell
// directory.
func (g *Grid) NeighborCells(q []float64, radius float64, fn func(key string, pts []int32, minD2, maxD2 float64)) {
	r2 := radius * radius
	d := g.ds.Dim()
	k := int(math.Ceil(radius / g.width))
	// Cost of offset enumeration vs directory scan.
	enumCost := math.Pow(float64(2*k+1), float64(d))
	if enumCost <= float64(len(g.cells)) && enumCost < 1e7 {
		base := make([]int32, d)
		g.cellCoords(q, base)
		cur := make([]int32, d)
		var rec func(j int)
		rec = func(j int) {
			if j == d {
				ck := key(cur)
				pts, ok := g.cells[ck]
				if !ok {
					return
				}
				rect := g.CellRect(cur)
				minD2 := rect.MinDist2(q)
				if minD2 > r2 {
					return
				}
				fn(ck, pts, minD2, rect.MaxDist2(q))
				return
			}
			for off := int32(-int32(k)); off <= int32(k); off++ {
				cur[j] = base[j] + off
				rec(j + 1)
			}
		}
		rec(0)
		return
	}
	// Directory scan in first-encounter order: deterministic, unlike ranging
	// over the map, so query results are reproducible across runs and builds.
	for _, ck := range g.order {
		rect := g.CellRect(g.coords[ck])
		minD2 := rect.MinDist2(q)
		if minD2 > r2 {
			continue
		}
		fn(ck, g.cells[ck], minD2, rect.MaxDist2(q))
	}
}

// RangeQuery implements index.Index with exact semantics.
func (g *Grid) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	eps2 := eps * eps
	g.NeighborCells(q, eps, func(_ string, pts []int32, minD2, maxD2 float64) {
		if maxD2 <= eps2 {
			buf = append(buf, pts...)
			return
		}
		buf = g.ds.FilterWithinIDs(q, eps2, pts, buf)
	})
	return buf
}

// RangeCount implements index.Index with exact semantics. The limit is
// applied best-effort: the scan stops visiting cells once reached.
func (g *Grid) RangeCount(q []float64, eps float64, limit int) int {
	eps2 := eps * eps
	count := 0
	g.NeighborCells(q, eps, func(_ string, pts []int32, minD2, maxD2 float64) {
		if limit > 0 && count >= limit {
			return
		}
		if maxD2 <= eps2 {
			count += len(pts)
			return
		}
		rem := 0
		if limit > 0 {
			rem = limit - count
		}
		count += g.ds.CountWithinIDs(q, eps2, pts, rem)
	})
	if limit > 0 && count > limit {
		count = limit
	}
	return count
}

// ApproxRangeCount counts with ρ-approximate semantics: points within eps
// are always counted, points beyond eps*(1+rho) never, and points in
// between may or may not be counted (they are, whenever their whole cell
// fits inside eps*(1+rho)). This is the query primitive of ρ-approximate
// DBSCAN.
func (g *Grid) ApproxRangeCount(q []float64, eps, rho float64, limit int) int {
	eps2 := eps * eps
	outer := eps * (1 + rho)
	outer2 := outer * outer
	count := 0
	g.NeighborCells(q, outer, func(_ string, pts []int32, minD2, maxD2 float64) {
		if limit > 0 && count >= limit {
			return
		}
		if minD2 > eps2 && minD2 > outer2 {
			return
		}
		if maxD2 <= outer2 && minD2 <= eps2 {
			// Whole cell inside the tolerance band: count wholesale.
			count += len(pts)
			return
		}
		rem := 0
		if limit > 0 {
			rem = limit - count
		}
		count += g.ds.CountWithinIDs(q, eps2, pts, rem)
	})
	if limit > 0 && count > limit {
		count = limit
	}
	return count
}

var _ index.Index = (*Grid)(nil)
