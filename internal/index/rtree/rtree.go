// Package rtree implements an in-memory R-tree over point data, built by
// Sort-Tile-Recursive (STR) bulk loading, which yields tightly packed leaves.
// It backs the R-DBSCAN baseline — the configuration the paper uses as
// clustering ground truth (an R*-tree there; every workload in this
// repository is static, so the bulk-loaded tree answers the same queries).
package rtree

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"dbsvec/internal/dist"
	"dbsvec/internal/engine"
	"dbsvec/internal/index"
	"dbsvec/internal/vec"
)

// MaxEntries is the node fanout.
const MaxEntries = 32

// Tree is an immutable R-tree over the points of a dataset. Safe for
// concurrent readers.
type Tree struct {
	ds   *vec.Dataset
	root *nodeT
	size int
	dim  int
}

type entry struct {
	rect  vec.Rect
	child *nodeT // nil for leaf entries
	id    int32  // point id for leaf entries
}

type nodeT struct {
	leaf    bool
	entries []entry
}

// New STR-loads all points of ds using up to workers goroutines (<= 0
// selects all CPUs): the per-tile slabs of the STR recursion are sorted
// concurrently and the leaf nodes with their bounding rectangles are
// computed in parallel. Tile boundaries, sort keys (with an id tie-break)
// and output slots are all fixed before any task runs, so the tree is
// bit-identical for every worker count.
//
// The build checks ctx at entry and at every slab of spawnMin points or
// more; a cancelled build abandons its partial tiling and returns ctx's
// error.
func New(ctx context.Context, ds *vec.Dataset, workers int) (*Tree, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	t := &Tree{ds: ds, dim: ds.Dim()}
	n := ds.Len()
	if n == 0 {
		t.root = &nodeT{leaf: true}
		return t, nil
	}
	workers = engine.ResolveWorkers(workers)
	leaves, cancelled := t.strPack(vec.Iota(n), workers, ctx)
	if cancelled {
		return nil, ctx.Err()
	}
	t.size = n
	t.root = t.buildUpward(leaves, workers)
	return t, nil
}

// spawnMin is the smallest slab a parallel bulk load hands to another
// worker.
const spawnMin = 2048

// sortIDsByDim sorts ids by the given coordinate, breaking ties by id.
// The id tie-break makes the order — and with it the whole STR tiling — a
// total order independent of the incoming permutation, which pins the tree
// shape across build configurations (pdqsort is unstable, so without the
// tie-break equal coordinates could land in input-dependent order).
func (t *Tree) sortIDsByDim(ids []int32, dim int) {
	slices.SortFunc(ids, func(a, b int32) int {
		va, vb := t.ds.Point(int(a))[dim], t.ds.Point(int(b))[dim]
		if va != vb {
			return cmp.Compare(va, vb)
		}
		return cmp.Compare(a, b)
	})
}

// strPack tile-sorts point ids into leaf nodes. ctx (nil on the plain path)
// allows mid-build cancellation: slabs of spawnMin points or more check the
// sticky cancelled flag at entry and bail out, and the second return value
// reports whether that happened (the partial tiling must then be discarded).
func (t *Tree) strPack(ids []int32, workers int, ctx context.Context) ([]entry, bool) {
	tasks := engine.NewTasks(workers)
	var cancelled atomic.Bool
	stop := func() bool {
		if ctx == nil {
			return false
		}
		if cancelled.Load() {
			return true
		}
		if ctx.Err() != nil {
			cancelled.Store(true)
			return true
		}
		return false
	}
	// Recursive tiling over dimensions: sort by dim 0, slice into vertical
	// runs, recurse with dim 1, etc. Each slab is independent after its
	// boundaries are cut, so slabs run as parallel tasks; their group lists
	// land in pre-assigned slots and are concatenated in slab order.
	var pack func(ids []int32, dim int) [][]int32
	pack = func(ids []int32, dim int) [][]int32 {
		if len(ids) >= spawnMin && stop() {
			return nil
		}
		t.sortIDsByDim(ids, dim)
		if dim == t.dim-1 || len(ids) <= MaxEntries {
			var out [][]int32
			for s := 0; s < len(ids); s += MaxEntries {
				e := s + MaxEntries
				if e > len(ids) {
					e = len(ids)
				}
				out = append(out, ids[s:e])
			}
			return out
		}
		nLeaves := (len(ids) + MaxEntries - 1) / MaxEntries
		// Number of slabs along this axis ~ ceil(nLeaves^(1/(remaining dims))).
		rem := t.dim - dim
		slabs := int(math.Ceil(math.Pow(float64(nLeaves), 1/float64(rem))))
		if slabs < 1 {
			slabs = 1
		}
		per := (len(ids) + slabs - 1) / slabs
		var bounds [][2]int
		for s := 0; s < len(ids); s += per {
			e := s + per
			if e > len(ids) {
				e = len(ids)
			}
			bounds = append(bounds, [2]int{s, e})
		}
		parts := make([][][]int32, len(bounds))
		var wg sync.WaitGroup
		for i := range bounds {
			i := i
			slab := ids[bounds[i][0]:bounds[i][1]]
			run := func() { parts[i] = pack(slab, dim+1) }
			wg.Add(1)
			if len(slab) >= spawnMin && tasks.Try(func() { defer wg.Done(); run() }) {
				continue
			}
			run()
			wg.Done()
		}
		wg.Wait()
		var out [][]int32
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	groups := pack(ids, 0)
	tasks.Wait()
	if cancelled.Load() {
		return nil, true
	}

	// Materialize leaf nodes and their MBRs in parallel, 64 groups per
	// chunk; leaves[i] depends only on groups[i].
	leaves := make([]entry, len(groups))
	engine.For(nil, workers, len(groups), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g := groups[i]
			nd := &nodeT{leaf: true, entries: make([]entry, 0, len(g))}
			for _, id := range g {
				nd.entries = append(nd.entries, entry{rect: vec.RectOf(t.ds.Point(int(id))), id: id})
			}
			leaves[i] = entry{rect: nodeRect(nd, t.dim), child: nd}
		}
	})
	return leaves, false
}

// buildUpward packs child entries level by level until one root remains.
// Each level's nodes are cut at fixed MaxEntries boundaries, so node
// construction and MBR computation parallelize over disjoint chunks.
func (t *Tree) buildUpward(children []entry, workers int) *nodeT {
	for len(children) > 1 {
		chunks := (len(children) + MaxEntries - 1) / MaxEntries
		next := make([]entry, chunks)
		engine.For(nil, workers, chunks, 64, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				s := c * MaxEntries
				e := s + MaxEntries
				if e > len(children) {
					e = len(children)
				}
				nd := &nodeT{entries: append([]entry(nil), children[s:e]...)}
				next[c] = entry{rect: nodeRect(nd, t.dim), child: nd}
			}
		})
		children = next
	}
	if len(children) == 0 {
		return &nodeT{leaf: true}
	}
	return children[0].child
}

func nodeRect(nd *nodeT, dim int) vec.Rect {
	r := vec.NewRect(dim)
	for i := range nd.entries {
		r.ExtendRect(nd.entries[i].rect)
	}
	return r
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// RangeQuery implements index.Index. Leaf entries hold degenerate point
// rects, so the per-entry MinDist2 prune there would just recompute the
// exact distance; leaves instead gather their ids and run the fused filter
// kernel in one pass. Internal nodes keep the rectangle prune.
func (t *Tree) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	eps2 := eps * eps
	scratch := make([]int32, 0, MaxEntries)
	var rec func(nd *nodeT)
	rec = func(nd *nodeT) {
		if nd.leaf {
			scratch = scratch[:0]
			for i := range nd.entries {
				scratch = append(scratch, nd.entries[i].id)
			}
			buf = dist.FilterWithinIDs(t.ds.Matrix(), q, eps2, scratch, buf)
			return
		}
		for i := range nd.entries {
			e := &nd.entries[i]
			if e.rect.MinDist2(q) <= eps2 {
				rec(e.child)
			}
		}
	}
	rec(t.root)
	return buf
}

// RangeCount implements index.Index (see RangeQuery for the leaf strategy).
func (t *Tree) RangeCount(q []float64, eps float64, limit int) int {
	eps2 := eps * eps
	count := 0
	scratch := make([]int32, 0, MaxEntries)
	var rec func(nd *nodeT) bool
	rec = func(nd *nodeT) bool {
		if nd.leaf {
			scratch = scratch[:0]
			for i := range nd.entries {
				scratch = append(scratch, nd.entries[i].id)
			}
			rem := 0
			if limit > 0 {
				rem = limit - count
			}
			count += dist.CountWithinIDs(t.ds.Matrix(), q, eps2, scratch, rem)
			return limit > 0 && count >= limit
		}
		for i := range nd.entries {
			e := &nd.entries[i]
			if e.rect.MinDist2(q) <= eps2 && rec(e.child) {
				return true
			}
		}
		return false
	}
	rec(t.root)
	return count
}

// checkInvariants validates entry counts and bounding rectangles; used by
// tests.
func (t *Tree) checkInvariants() error {
	return checkNode(t.root, t.dim, true)
}

var _ index.Index = (*Tree)(nil)
