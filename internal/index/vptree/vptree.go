// Package vptree implements a vantage-point tree (Yianilos, SODA 1993): a
// metric-space index that partitions points by distance to a chosen
// vantage point instead of by coordinates. Unlike kd-trees and R-trees,
// whose axis-aligned pruning decays with dimensionality, VP-trees prune
// with the triangle inequality alone, making them a useful exact backend
// for the high-dimensional workloads in Figures 6b and 7.
//
// Construction partitions the id slice in place around the median distance
// to the vantage point, so every subtree owns a contiguous id range and the
// preorder node layout — like the kd-tree's — is a pure function of the
// input size. Vantage points are drawn from a per-node hash rather than a
// sequential PRNG, which keeps the choice reproducible AND independent of
// build order, so subtrees can be constructed concurrently (see New)
// with bit-identical results for every worker count. Leaf points are packed
// into a contiguous leaf-ordered matrix for cache-friendly leaf scans.
package vptree

import (
	"context"
	"sync/atomic"

	"dbsvec/internal/dist"
	"dbsvec/internal/engine"
	"dbsvec/internal/index"
	"dbsvec/internal/vec"
)

// LeafSize is the maximum number of points stored in a leaf.
const LeafSize = 16

// spawnMin is the smallest subtree a parallel build hands to another worker.
const spawnMin = 2048

// Tree is an immutable vantage-point tree. Safe for concurrent readers.
type Tree struct {
	ds    *vec.Dataset
	nodes []node
	ids   []int32 // permutation of 0..n-1; every subtree owns a contiguous run
	// packed holds the points in leaf order (Row(k) is the point with id
	// ids[k]); see the kd-tree for the streaming-leaf-scan rationale.
	// Float32-storage datasets pack into packed32 instead.
	packed   dist.Matrix
	packed32 dist.Matrix32
}

type node struct {
	// Internal: vp is the vantage point id, radius the median distance;
	// inside/outside are child node indices.
	vp      int32
	radius  float64
	inside  int32
	outside int32
	// Leaf: [start, end) into ids; leaf nodes have inside == -1.
	start, end int32
}

// New builds a VP-tree over ds using up to workers goroutines (<= 0
// selects all CPUs). Vantage points are chosen by a deterministic per-node
// hash, so the tree is bit-identical for every worker count.
//
// The build checks ctx at entry and at every subtree of spawnMin points or
// more; a cancelled build abandons its partial structure and returns ctx's
// error.
func New(ctx context.Context, ds *vec.Dataset, workers int) (*Tree, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	n := ds.Len()
	t := &Tree{ds: ds, ids: vec.Iota(n)}
	if n == 0 {
		return t, nil
	}
	workers = engine.ResolveWorkers(workers)
	memo := subtreeSizes(n)
	t.nodes = make([]node, memo[sizeKey(n)])
	b := &buildState{t: t, memo: memo, tasks: engine.NewTasks(workers), ctx: ctx}
	b.build(0, 0, n, make([]float64, n-1))
	b.tasks.Wait()
	if b.cancelled.Load() {
		return nil, ctx.Err()
	}
	t.packLeaves(workers)
	return t, nil
}

// sizeKey normalizes a range length for the subtree-size memo.
func sizeKey(m int) int {
	if m <= LeafSize {
		return LeafSize
	}
	return m
}

// subtreeSizes returns the node count of a subtree over every range length
// reachable from n: a range of m points splits into an inside half of
// (m-1)/2 + 1 points (the vantage point plus everything within the median
// radius) and an outside half holding the rest.
func subtreeSizes(n int) map[int]int32 {
	memo := make(map[int]int32)
	var count func(m int) int32
	count = func(m int) int32 {
		if m <= LeafSize {
			return 1
		}
		if c, ok := memo[m]; ok {
			return c
		}
		in := (m-1)/2 + 1
		c := 1 + count(in) + count(m-in)
		memo[m] = c
		return c
	}
	memo[LeafSize] = 1
	memo[sizeKey(n)] = count(n)
	return memo
}

// vantageIndex picks the vantage position within a subtree's id range by
// hashing the node's preorder slot (splitmix64 finalizer). The draw depends
// only on (slot, range length), never on which goroutine builds the
// subtree.
func vantageIndex(self int32, m int) int {
	x := uint64(self)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return int(x % uint64(m))
}

type buildState struct {
	t     *Tree
	memo  map[int]int32
	tasks *engine.Tasks
	// ctx and the sticky cancelled flag implement mid-build cancellation
	// (see the kd-tree's buildState; checks happen only at subtrees of
	// spawnMin points or more).
	ctx       context.Context
	cancelled atomic.Bool
}

// stop reports whether the build has been cancelled.
func (b *buildState) stop() bool {
	if b.ctx == nil {
		return false
	}
	if b.cancelled.Load() {
		return true
	}
	if b.ctx.Err() != nil {
		b.cancelled.Store(true)
		return true
	}
	return false
}

// build constructs the subtree over ids[off:off+m) into node slot self.
// dscratch is a distance buffer of at least m-1 entries owned by the
// calling goroutine.
func (b *buildState) build(self int32, off, m int, dscratch []float64) {
	t := b.t
	if m >= spawnMin && b.stop() {
		return
	}
	if m <= LeafSize {
		t.nodes[self] = node{inside: -1, outside: -1, start: int32(off), end: int32(off + m)}
		return
	}
	seg := t.ids[off : off+m]

	// Move the vantage point to the front; it stays in the inside subtree
	// (distance 0 to itself).
	vi := vantageIndex(self, m)
	seg[0], seg[vi] = seg[vi], seg[0]
	vp := seg[0]
	rest := seg[1:]

	// Partition rest in place by the median distance to vp.
	dists := dscratch[:len(rest)]
	vpPoint := t.ds.Point(int(vp))
	for i, id := range rest {
		dists[i] = vec.Dist(t.ds.Point(int(id)), vpPoint)
	}
	mid := len(rest) / 2
	quickselect(rest, dists, mid)
	radius := dists[mid]

	in := mid + 1 // vp + rest[:mid]
	inside := self + 1
	outside := inside + b.memo[sizeKey(in)]
	t.nodes[self] = node{vp: vp, radius: radius, inside: inside, outside: outside}
	if m-in >= spawnMin && b.tasks.Try(func() {
		b.build(outside, off+in, m-in, make([]float64, m-in-1))
	}) {
		b.build(inside, off, in, dscratch)
		return
	}
	b.build(inside, off, in, dscratch)
	b.build(outside, off+in, m-in, dscratch)
}

// packLeaves copies the points into leaf order (see kdtree.packLeaves).
func (t *Tree) packLeaves(workers int) {
	d := t.ds.Dim()
	if m32 := t.ds.Matrix32(); m32.Coords != nil {
		coords := make([]float32, len(t.ids)*d)
		engine.ForRanges(workers, len(t.ids), nil, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				copy(coords[k*d:(k+1)*d], m32.Row(int(t.ids[k])))
			}
		})
		t.packed32 = dist.Matrix32{Coords: coords, Dim: d}
		return
	}
	coords := make([]float64, len(t.ids)*d)
	engine.ForRanges(workers, len(t.ids), nil, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			copy(coords[k*d:(k+1)*d], t.ds.Point(int(t.ids[k])))
		}
	})
	t.packed = dist.Matrix{Coords: coords, Dim: d}
}

// quickselect partially sorts (ids, dists) so the element with rank nth is
// in place.
func quickselect(ids []int32, dists []float64, nth int) {
	lo, hi := 0, len(ids)-1
	for lo < hi {
		pivot := dists[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for dists[i] < pivot {
				i++
			}
			for dists[j] > pivot {
				j--
			}
			if i <= j {
				dists[i], dists[j] = dists[j], dists[i]
				ids[i], ids[j] = ids[j], ids[i]
				i++
				j--
			}
		}
		if nth <= j {
			hi = j
		} else if nth >= i {
			lo = i
		} else {
			return
		}
	}
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.ds.Len() }

// scanLeaf appends leaf nd's points within eps2 of q, streaming the packed
// block when available (bit-identical to the gather path; see kdtree).
func (t *Tree) scanLeaf(nd *node, q []float64, eps2 float64, buf []int32) []int32 {
	if t.packed32.Coords != nil {
		mark := len(buf)
		buf = dist.FilterWithinRange32(t.packed32, q, eps2, int(nd.start), int(nd.end), buf)
		for i := mark; i < len(buf); i++ {
			buf[i] = t.ids[buf[i]]
		}
		return buf
	}
	if t.packed.Coords == nil {
		return t.ds.FilterWithinIDs(q, eps2, t.ids[nd.start:nd.end], buf)
	}
	mark := len(buf)
	buf = dist.FilterWithinRange(t.packed, q, eps2, int(nd.start), int(nd.end), buf)
	for i := mark; i < len(buf); i++ {
		buf[i] = t.ids[buf[i]]
	}
	return buf
}

// countLeaf counts leaf nd's points within eps2 of q (see scanLeaf).
func (t *Tree) countLeaf(nd *node, q []float64, eps2 float64, limit int) int {
	if t.packed32.Coords != nil {
		return dist.CountWithinRange32(t.packed32, q, eps2, int(nd.start), int(nd.end), limit)
	}
	if t.packed.Coords == nil {
		return t.ds.CountWithinIDs(q, eps2, t.ids[nd.start:nd.end], limit)
	}
	return dist.CountWithinRange(t.packed, q, eps2, int(nd.start), int(nd.end), limit)
}

// RangeQuery implements index.Index.
func (t *Tree) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	if t.ds.Len() == 0 {
		return buf
	}
	eps2 := eps * eps
	var rec func(ni int32)
	rec = func(ni int32) {
		nd := &t.nodes[ni]
		if nd.inside < 0 { // leaf
			buf = t.scanLeaf(nd, q, eps2, buf)
			return
		}
		d := vec.Dist(t.ds.Point(int(nd.vp)), q)
		// Triangle inequality pruning: the inside ball holds points with
		// dist(p, vp) <= radius, the outside shell the rest.
		if d-eps <= nd.radius {
			rec(nd.inside)
		}
		if d+eps >= nd.radius {
			rec(nd.outside)
		}
	}
	rec(0)
	return buf
}

// RangeCount implements index.Index.
func (t *Tree) RangeCount(q []float64, eps float64, limit int) int {
	if t.ds.Len() == 0 {
		return 0
	}
	eps2 := eps * eps
	count := 0
	var rec func(ni int32) bool
	rec = func(ni int32) bool {
		nd := &t.nodes[ni]
		if nd.inside < 0 {
			rem := 0
			if limit > 0 {
				rem = limit - count
			}
			count += t.countLeaf(nd, q, eps2, rem)
			return limit > 0 && count >= limit
		}
		d := vec.Dist(t.ds.Point(int(nd.vp)), q)
		if d-eps <= nd.radius && rec(nd.inside) {
			return true
		}
		if d+eps >= nd.radius && rec(nd.outside) {
			return true
		}
		return false
	}
	rec(0)
	return count
}

// Depth returns the height of the tree.
func (t *Tree) Depth() int {
	var rec func(ni int32) int
	rec = func(ni int32) int {
		nd := &t.nodes[ni]
		if nd.inside < 0 {
			return 1
		}
		di := rec(nd.inside)
		do := rec(nd.outside)
		if do > di {
			di = do
		}
		return di + 1
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return rec(0)
}

var _ index.Index = (*Tree)(nil)
