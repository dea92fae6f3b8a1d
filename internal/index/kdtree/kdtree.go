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
// cache-friendly block scan; hits are remapped to original ids through the
// leaf permutation.
package kdtree

import (
	"context"
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
	// packed holds the points in leaf order (row k is the point with id
	// ids[k]), so leaf scans stream contiguous memory, in the storage the
	// dataset's scans stream: its float32 mirror in F32 mode, half the bytes
	// per scan.
	packed dist.Matrix
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
// contiguous block of the packed matrix.
func (t *Tree) packLeaves(workers int) {
	m := t.ds.Matrix()
	t.packed = m.Packed(len(t.ids))
	engine.ForRanges(workers, len(t.ids), nil, func(lo, hi int) {
		t.packed.CopyRows(m, t.ids, lo, hi)
	})
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

// scanLeaf appends the ids of leaf nd's points within eps2 of q: it streams
// the leaf's contiguous block and remaps positions to original ids.
func (t *Tree) scanLeaf(nd *node, q []float64, eps2 float64, buf []int32) []int32 {
	mark := len(buf)
	buf = dist.FilterWithinRange(t.packed, q, eps2, int(nd.start), int(nd.end), buf)
	for i := mark; i < len(buf); i++ {
		buf[i] = t.ids[buf[i]]
	}
	return buf
}

// countLeaf counts leaf nd's points within eps2 of q (see scanLeaf).
func (t *Tree) countLeaf(nd *node, q []float64, eps2 float64, limit int) int {
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

var _ index.Index = (*Tree)(nil)
