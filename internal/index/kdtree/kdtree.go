// Package kdtree implements a static bulk-loaded kd-tree (Bentley, 1975)
// over a vec.Dataset. It backs the kd-DBSCAN baseline from the paper's
// experiment section and doubles as a general exact range-query index.
//
// The tree is built once by recursive median splitting (Hoare selection on
// the widest-spread dimension) of a permutation of the point ids, down to
// leaves of at most LeafSize points. Each split only reorders its own range
// of the permutation, so independent subtrees are built concurrently (see
// New) and still produce the permutation of the serial build, bit for bit.
//
// The tree keeps no nodes: the permutation is the order in which a
// preorder walk visits the leaves, and the points are packed in that order
// into a contiguous matrix. Queries are the linear scan's (index.Linear)
// over the packed matrix: its zone map boxes every 64 consecutive packed
// rows, four leaves that lie close together, so a query reads only the
// zones its ε-ball reaches, and its hits are mapped back to point ids
// through the permutation. A hit list comes out in packed order, the order
// in which a recursive walk over the leaves would have found it.
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

// Tree is an immutable kd-tree: the linear scan over its leaf order. Safe
// for concurrent readers.
type Tree struct {
	*index.Linear
	ids []int32 // permutation of 0..n-1; leaves own contiguous runs
	// packed holds the points in leaf order (row k is the point with id
	// ids[k]), in the storage the dataset's scans stream: its float32
	// mirror alone in F32 mode, half the bytes per scan. The zone map and
	// the scans read it in place.
	packed dist.Matrix
}

// New bulk-loads a kd-tree over ds using up to workers goroutines (<= 0
// selects all CPUs). The resulting tree — id permutation, packed leaf
// matrix and zone map — is bit-identical for every worker count: median
// splitting is deterministic and every subtree reorders only its own range
// of ids.
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
	workers = engine.ResolveWorkers(workers)
	b := &buildState{ds: ds, ids: vec.Iota(n), tasks: engine.NewTasks(workers), ctx: ctx}
	b.build(0, n, newBuildScratch(ds.Dim()))
	b.tasks.Wait()
	if b.cancelled.Load() {
		return nil, ctx.Err()
	}
	m := ds.Matrix()
	t := &Tree{ids: b.ids, packed: m.Packed(n)}
	engine.For(nil, workers, n, 1024, func(lo, hi int) {
		t.packed.CopyRows(m, b.ids, lo, hi)
	})
	t.Linear = index.NewOrdered(t.packed, b.ids, workers)
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

// buildScratch holds the per-goroutine lo/hi buffers of widestDim, hoisted
// out of the recursion so a build performs O(workers) bound-buffer
// allocations instead of one pair per split.
type buildScratch struct {
	lo, hi []float64
}

func newBuildScratch(d int) *buildScratch {
	return &buildScratch{lo: make([]float64, d), hi: make([]float64, d)}
}

// buildState carries the build's inputs: the dataset, the permutation the
// splits reorder and the task budget. ctx and the sticky cancelled flag
// implement mid-build cancellation; a nil ctx disables both.
type buildState struct {
	ds        *vec.Dataset
	ids       []int32
	tasks     *engine.Tasks
	ctx       context.Context
	cancelled atomic.Bool
}

// stop reports whether the build has been cancelled. Checked only at
// subtrees of spawnMin points or more, so the serial hot path stays free of
// per-split overhead while cancellation latency stays bounded by one small
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

// build splits ids[start:end) at its median on its widest dimension, so
// ids[start:mid) hold the points at or below ids[mid]'s coordinate on it
// and ids[mid:end) those at or above, and builds both halves down to
// leaves of at most LeafSize points. The halves are disjoint ranges of
// ids, so one may build on another worker.
func (b *buildState) build(start, end int, sc *buildScratch) {
	if end-start <= LeafSize || end-start >= spawnMin && b.stop() {
		return
	}
	dim := b.widestDim(start, end, sc)
	mid := (start + end) / 2
	b.selectNth(start, end, mid, dim)
	if end-mid < spawnMin || !b.tasks.Try(func() { b.build(mid, end, newBuildScratch(b.ds.Dim())) }) {
		b.build(mid, end, sc)
	}
	b.build(start, mid, sc)
}

// widestDim returns the dimension with the largest coordinate spread over
// ids[start:end).
func (b *buildState) widestDim(start, end int, sc *buildScratch) int {
	d := b.ds.Dim()
	lo, hi := sc.lo[:d], sc.hi[:d]
	p0 := b.ds.Point(int(b.ids[start]))
	copy(lo, p0)
	copy(hi, p0)
	for i := start + 1; i < end; i++ {
		p := b.ds.Point(int(b.ids[i]))
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
func (b *buildState) selectNth(start, end, nth, dim int) {
	key := func(i int) float64 { return b.ds.Point(int(b.ids[i]))[dim] }
	lo, hi := start, end-1
	for lo < hi {
		// Median-of-three pivot selection resists sorted inputs.
		mid := (lo + hi) / 2
		if key(mid) < key(lo) {
			b.ids[mid], b.ids[lo] = b.ids[lo], b.ids[mid]
		}
		if key(hi) < key(lo) {
			b.ids[hi], b.ids[lo] = b.ids[lo], b.ids[hi]
		}
		if key(hi) < key(mid) {
			b.ids[hi], b.ids[mid] = b.ids[mid], b.ids[hi]
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
				b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
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

var _ index.Index = (*Tree)(nil)
