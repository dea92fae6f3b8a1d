// Package kdtree implements a static bulk-loaded kd-tree (Bentley, 1975)
// over a vec.Dataset. It backs the kd-DBSCAN baseline from the paper's
// experiment section and doubles as a general exact range-query index.
//
// The tree is built once by recursive median splitting (Hoare selection on
// the widest-spread dimension). Nodes are stored in preorder: a node's left
// child immediately follows it and the right child follows the whole left
// subtree, whose size is a pure function of the range length. That layout is
// fixed before construction starts, so independent subtrees can be built
// concurrently (see New) and still produce a tree bit-identical to
// the serial build. Leaves hold small runs of point ids that are scanned
// linearly, which in practice beats splitting to single points.
//
// After the structure is built the leaf points are additionally packed into
// a contiguous leaf-ordered matrix, so range queries stream each leaf as one
// cache-friendly block scan instead of gathering rows by id; hits are
// remapped to original ids through the leaf permutation.
package kdtree

import (
	"context"
	"math"
	"sync/atomic"

	"dbsvec/internal/dist"
	"dbsvec/internal/engine"
	"dbsvec/internal/index"
	"dbsvec/internal/vec"
)

// LeafSize is the maximum number of points kept in a leaf before splitting.
const LeafSize = 16

// spawnMin is the smallest range a parallel build hands to another worker;
// below it the task overhead exceeds the split work.
const spawnMin = 2048

// Tree is an immutable kd-tree. Safe for concurrent readers.
type Tree struct {
	ds    *vec.Dataset
	ids   []int32 // permutation of 0..n-1; leaves own contiguous runs
	nodes []node
	// packed holds the points in leaf order (Row(k) is the point with id
	// ids[k]), so leaf scans stream contiguous memory. An empty matrix
	// falls back to gathering rows by id; both paths are bit-identical.
	// Datasets in float32 storage pack into packed32 instead — the same leaf
	// order at half the bytes per scan, still bit-identical to the gather
	// path because the f32 kernels accumulate in float64 over coordinates
	// that equal the widened master exactly.
	packed   dist.Matrix
	packed32 dist.Matrix32
}

type node struct {
	// Internal nodes: split dimension and value; leaf == false.
	// Leaf nodes: [start,end) run in ids; leaf == true.
	splitDim int32
	splitVal float64
	start    int32
	end      int32
	left     int32 // index of left child node, -1 for leaf
	right    int32
}

// New bulk-loads a kd-tree over ds using up to workers goroutines (<= 0
// selects all CPUs). The resulting tree — node layout, id permutation and
// packed leaf matrix — is bit-identical for every worker count: median
// splitting is deterministic and the preorder node layout is computed ahead
// of construction, so workers only pick up pre-assigned subtree slots.
//
// The build checks ctx at entry and at every subtree of spawnMin points or
// more; when ctx is cancelled it abandons the partial structure and returns
// ctx's error.
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
	b.build(0, 0, n, newBuildScratch(ds.Dim()))
	b.tasks.Wait()
	if b.cancelled.Load() {
		return nil, ctx.Err()
	}
	t.packLeaves(workers)
	return t, nil
}

// BuildWorkers is index.Bind(New, workers).
//
// Deprecated: kept for perfbench; remove with the next benchmark change.
func BuildWorkers(workers int) index.CtxBuilder { return index.Bind(New, workers) }

// BuildWorkersCtx is index.Bind(New, workers).
//
// Deprecated: kept for perfbench; remove with the next benchmark change.
func BuildWorkersCtx(workers int) index.CtxBuilder { return index.Bind(New, workers) }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.ds.Len() }

// sizeKey normalizes a range length for the subtree-size memo; lengths at or
// below LeafSize all map to a single leaf.
func sizeKey(m int) int {
	if m <= LeafSize {
		return LeafSize
	}
	return m
}

// subtreeSizes returns the node count of a subtree over every range length
// reachable from n. A range of length m splits into floor(m/2) and
// ceil(m/2), so the reachable set — and with it the whole preorder node
// layout — depends only on n, never on coordinates or scheduling.
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
		c := 1 + count(m/2) + count(m-m/2)
		memo[m] = c
		return c
	}
	memo[LeafSize] = 1
	memo[sizeKey(n)] = count(n)
	return memo
}

// buildScratch holds the per-goroutine lo/hi buffers of widestDim, hoisted
// out of the recursion so a build performs O(workers) bound-buffer
// allocations instead of one pair per internal node.
type buildScratch struct {
	lo, hi []float64
}

func newBuildScratch(d int) *buildScratch {
	return &buildScratch{lo: make([]float64, d), hi: make([]float64, d)}
}

// buildState carries the shared read-only build inputs: the precomputed
// subtree-size memo (frozen before any task spawns) and the task budget.
// ctx and the sticky cancelled flag implement mid-build cancellation; a nil
// ctx disables both.
type buildState struct {
	t         *Tree
	memo      map[int]int32
	tasks     *engine.Tasks
	ctx       context.Context
	cancelled atomic.Bool
}

// stop reports whether the build has been cancelled. Checked only at
// subtrees of spawnMin points or more, so the serial hot path stays free of
// per-node overhead while cancellation latency stays bounded by one small
// subtree's build time.
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

// build constructs the subtree over ids[start:end) into node slot self. The
// slot indices of both children are derived from the memo, so concurrent
// builds write disjoint node ranges.
func (b *buildState) build(self int32, start, end int, sc *buildScratch) {
	t := b.t
	if end-start >= spawnMin && b.stop() {
		return
	}
	if end-start <= LeafSize {
		t.nodes[self] = node{start: int32(start), end: int32(end), left: -1, right: -1}
		return
	}
	dim := t.widestDim(start, end, sc)
	mid := (start + end) / 2
	t.selectNth(start, end, mid, dim)
	splitVal := t.ds.Point(int(t.ids[mid]))[dim]
	left := self + 1
	right := left + b.memo[sizeKey(mid-start)]
	t.nodes[self] = node{splitDim: int32(dim), splitVal: splitVal, left: left, right: right}
	if end-mid >= spawnMin && b.tasks.Try(func() {
		b.build(right, mid, end, newBuildScratch(t.ds.Dim()))
	}) {
		b.build(left, start, mid, sc)
		return
	}
	b.build(left, start, mid, sc)
	b.build(right, mid, end, sc)
}

// packLeaves copies the points into leaf order so every leaf owns a
// contiguous block of the packed matrix. Float32-storage datasets pack the
// float32 mirror (same permutation, half the scan bandwidth).
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

// widestDim returns the dimension with the largest coordinate spread over
// ids[start:end).
func (t *Tree) widestDim(start, end int, sc *buildScratch) int {
	d := t.ds.Dim()
	lo, hi := sc.lo[:d], sc.hi[:d]
	p0 := t.ds.Point(int(t.ids[start]))
	copy(lo, p0)
	copy(hi, p0)
	for i := start + 1; i < end; i++ {
		p := t.ds.Point(int(t.ids[i]))
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	best, bestExt := 0, hi[0]-lo[0]
	for j := 1; j < d; j++ {
		if ext := hi[j] - lo[j]; ext > bestExt {
			best, bestExt = j, ext
		}
	}
	return best
}

// selectNth partially sorts ids[start:end) so that the element with rank
// nth sits at position nth (quickselect with median-of-three pivot).
func (t *Tree) selectNth(start, end, nth, dim int) {
	key := func(i int) float64 { return t.ds.Point(int(t.ids[i]))[dim] }
	lo, hi := start, end-1
	for lo < hi {
		// Median-of-three pivot selection resists sorted inputs.
		mid := (lo + hi) / 2
		if key(mid) < key(lo) {
			t.ids[mid], t.ids[lo] = t.ids[lo], t.ids[mid]
		}
		if key(hi) < key(lo) {
			t.ids[hi], t.ids[lo] = t.ids[lo], t.ids[hi]
		}
		if key(hi) < key(mid) {
			t.ids[hi], t.ids[mid] = t.ids[mid], t.ids[hi]
		}
		pivot := key(mid)
		i, j := lo, hi
		for i <= j {
			for key(i) < pivot {
				i++
			}
			for key(j) > pivot {
				j--
			}
			if i <= j {
				t.ids[i], t.ids[j] = t.ids[j], t.ids[i]
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

// scanLeaf appends the ids of leaf nd's points within eps2 of q. The packed
// path streams the leaf's contiguous block and remaps positions to original
// ids; the gather path reads rows by id. Both visit the same points in the
// same order with the same distance kernel, so output is bit-identical.
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
		if nd.left < 0 { // leaf
			buf = t.scanLeaf(nd, q, eps2, buf)
			return
		}
		diff := q[nd.splitDim] - nd.splitVal
		if diff <= eps {
			rec(nd.left)
		}
		if diff >= -eps {
			rec(nd.right)
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
	var rec func(ni int32) bool // returns true when limit reached
	rec = func(ni int32) bool {
		nd := &t.nodes[ni]
		if nd.left < 0 {
			rem := 0
			if limit > 0 {
				rem = limit - count
			}
			count += t.countLeaf(nd, q, eps2, rem)
			return limit > 0 && count >= limit
		}
		diff := q[nd.splitDim] - nd.splitVal
		if diff <= eps && rec(nd.left) {
			return true
		}
		if diff >= -eps && rec(nd.right) {
			return true
		}
		return false
	}
	rec(0)
	return count
}

// Nearest returns the id of the indexed point closest to q and the squared
// distance to it. It returns (-1, +Inf) on an empty tree. Ties break toward
// the lower id encountered first in traversal order.
func (t *Tree) Nearest(q []float64) (int32, float64) {
	if t.ds.Len() == 0 {
		return -1, math.Inf(1)
	}
	best := int32(-1)
	bestD := math.Inf(1)
	var rec func(ni int32)
	rec = func(ni int32) {
		nd := &t.nodes[ni]
		if nd.left < 0 {
			if id, d := dist.NearestIDs(t.ds.Matrix(), q, t.ids[nd.start:nd.end], bestD); id >= 0 {
				best, bestD = id, d
			}
			return
		}
		diff := q[nd.splitDim] - nd.splitVal
		near, far := nd.left, nd.right
		if diff > 0 {
			near, far = far, near
		}
		rec(near)
		if diff*diff < bestD {
			rec(far)
		}
	}
	rec(0)
	return best, bestD
}

var _ index.Index = (*Tree)(nil)
