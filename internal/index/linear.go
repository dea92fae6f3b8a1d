package index

import (
	"context"
	"sync"

	"dbsvec/internal/dist"
	"dbsvec/internal/engine"
	"dbsvec/internal/fault"
	"dbsvec/internal/vec"
)

// minBlockRows is the fewest rows a split scan gives one row block, so a
// scan splits only from 2·minBlockRows rows on. Below that the fan-out's
// fixed cost (goroutine starts and a wait, a few µs) is a large share of
// the scan it would split. Measured on 2 vCPUs at n=40k, d=8 (whole scan
// ~200 µs), single-query medians were 81–110 µs at 4096 rows (9 blocks),
// 88–107 µs at 2048 and 98–161 µs with one block per worker.
const minBlockRows = 4096

// Linear is the exhaustive-scan index: O(n) per query, zero build cost,
// no extra memory. It is the ground-truth oracle for all other indexes.
//
// Every scan uses every worker. A single query, and every query of a batch
// too small to occupy the workers one query each, is split into
// contiguous row blocks of minBlockRows to 2·minBlockRows rows, which the
// workers claim one at a time on engine.For: a worker whose CPU wakes late
// still takes its share of the blocks, where one block per worker would
// leave the scan waiting for it. Block results are concatenated in block
// order, so a split query returns the ascending ids dist.FilterWithin
// returns, and block counts are summed and clamped at the limit, which is
// dist.CountWithin's value: the split changes speed, never a result.
type Linear struct {
	ds *vec.Dataset
	// workers and blocks size a single query's split; blocks == 1 scans
	// whole on the caller.
	workers int
	blocks  int
	// scratch holds *blockScratch: a Linear is shared by concurrent
	// readers, so single queries cannot share one buffer.
	scratch sync.Pool
}

// blockScratch is a split single query's per-block results.
type blockScratch struct {
	ids    [][]int32
	counts []int
}

// NewLinear wraps a dataset in a linear-scan index. There is nothing to
// build, so ctx is checked once; workers (<= 0 selects GOMAXPROCS) is the
// number of goroutines a single query's split scan runs on. workers == 1
// scans every single query whole on the caller, as do datasets of fewer
// than 2·minBlockRows points.
func NewLinear(ctx context.Context, ds *vec.Dataset, workers int) (*Linear, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	workers = engine.ResolveWorkers(workers)
	return &Linear{ds: ds, workers: workers, blocks: blocksFor(ds.Len(), workers)}, nil
}

// blocksFor is the number of row blocks a scan of n rows on workers
// splits into: 1 on one worker, else as many as give each block at least
// minBlockRows rows.
func blocksFor(n, workers int) int {
	if workers <= 1 {
		return 1
	}
	return max(1, n/minBlockRows)
}

// block returns the rows [lo, hi) of block b of nb over n rows. The blocks
// tile [0, n) in order, which is what makes the concatenation of block
// results in block order ascending.
func block(n, nb, b int) (lo, hi int) { return b * n / nb, (b + 1) * n / nb }

// Len returns the number of indexed points.
func (l *Linear) Len() int { return l.ds.Len() }

// RangeQuery implements Index via the fused filter kernel.
func (l *Linear) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	m := l.ds.Matrix()
	if l.blocks == 1 {
		return dist.FilterWithin(m, q, eps*eps, buf)
	}
	s := l.getScratch()
	// A background ctx never cancels, so the loop cannot fail.
	_ = l.scanItems(context.Background(), l.workers, single(q), eps, l.blocks, s.ids)
	for _, part := range s.ids {
		buf = append(buf, part...)
	}
	l.scratch.Put(s)
	return buf
}

// RangeCount implements Index via the fused count kernel.
func (l *Linear) RangeCount(q []float64, eps float64, limit int) int {
	m := l.ds.Matrix()
	if l.blocks == 1 {
		return dist.CountWithin(m, q, eps*eps, limit)
	}
	s := l.getScratch()
	_ = l.countItems(context.Background(), l.workers, single(q), eps, limit, l.blocks, s.counts)
	c := clampSum(s.counts, limit)
	l.scratch.Put(s)
	return c
}

// getScratch takes a single query's block buffers from the pool.
func (l *Linear) getScratch() *blockScratch {
	if s, ok := l.scratch.Get().(*blockScratch); ok {
		return s
	}
	return &blockScratch{ids: make([][]int32, l.blocks), counts: make([]int, l.blocks)}
}

// single addresses one query point as a batch.
func single(q []float64) Queries {
	return Queries{N: 1, At: func(int) []float64 { return q }}
}

// BatchRangeQuery implements BatchIndex. It never calls the splitting
// RangeQuery, so there is no nested fan-out: a batch of at least 2·workers
// queries claims one whole-scan query per step, and a smaller batch fans
// out its (query × row block) items, whose results live in out's backing
// array past qs.N until they are concatenated into their query's entry.
func (l *Linear) BatchRangeQuery(ctx context.Context, qs Queries, eps float64, workers int, out [][]int32) (_ [][]int32, err error) {
	if err := fault.Error(fault.IndexQueryError); err != nil {
		return nil, err
	}
	defer fault.RecoverTo(&err)
	nb := l.batchBlocks(qs.N, workers)
	if nb == 1 {
		out = growSlices(out, qs.N)
		if err := l.scanItems(ctx, workers, qs, eps, 1, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	out = growSlices(out, qs.N*(1+nb))
	items := out[qs.N:]
	if err := l.scanItems(ctx, workers, qs, eps, nb, items); err != nil {
		return nil, err
	}
	for i := range qs.N {
		out[i] = out[i][:0]
		for _, part := range items[i*nb : (i+1)*nb] {
			out[i] = append(out[i], part...)
		}
	}
	return out[:qs.N], nil
}

// BatchRangeCount implements BatchIndex with BatchRangeQuery's schedule;
// a split query's block counts sit in out past qs.N until they are summed.
func (l *Linear) BatchRangeCount(ctx context.Context, qs Queries, eps float64, limit, workers int, out []int) (_ []int, err error) {
	if err := fault.Error(fault.IndexQueryError); err != nil {
		return nil, err
	}
	defer fault.RecoverTo(&err)
	nb := l.batchBlocks(qs.N, workers)
	size := qs.N
	if nb > 1 {
		size += qs.N * nb
	}
	if cap(out) < size {
		out = make([]int, size)
	}
	out = out[:size]
	if nb == 1 {
		if err := l.countItems(ctx, workers, qs, eps, limit, 1, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	items := out[qs.N:]
	if err := l.countItems(ctx, workers, qs, eps, limit, nb, items); err != nil {
		return nil, err
	}
	for i := range qs.N {
		out[i] = clampSum(items[i*nb:(i+1)*nb], limit)
	}
	return out[:qs.N], nil
}

// batchBlocks is the number of row blocks each query of a qs-query batch
// splits into on workers: 1 once the batch alone occupies every worker
// twice over.
func (l *Linear) batchBlocks(queries, workers int) int {
	w := engine.ResolveWorkers(workers)
	if queries >= 2*w {
		return 1
	}
	return blocksFor(l.ds.Len(), w)
}

// scanItems fills items[k] with the ids of row block k%nb within eps of
// query k/nb, one item per engine.For step.
func (l *Linear) scanItems(ctx context.Context, workers int, qs Queries, eps float64, nb int, items [][]int32) error {
	m, eps2, n := l.ds.Matrix(), eps*eps, l.ds.Len()
	return engine.For(ctx, workers, qs.N*nb, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			r0, r1 := block(n, nb, k%nb)
			items[k] = dist.FilterWithinRange(m, qs.At(k/nb), eps2, r0, r1, items[k][:0])
		}
	})
}

// countItems is scanItems for the limit-clamped block counts.
func (l *Linear) countItems(ctx context.Context, workers int, qs Queries, eps float64, limit, nb int, items []int) error {
	m, eps2, n := l.ds.Matrix(), eps*eps, l.ds.Len()
	return engine.For(ctx, workers, qs.N*nb, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			r0, r1 := block(n, nb, k%nb)
			items[k] = dist.CountWithinRange(m, qs.At(k/nb), eps2, r0, r1, limit)
		}
	})
}

// clampSum is the count of a query from its block counts. A block stops at
// limit only when the whole scan would reach it too, so the clamped sum is
// exactly dist.CountWithin's value.
func clampSum(counts []int, limit int) int {
	c := 0
	for _, k := range counts {
		c += k
	}
	if limit > 0 && c > limit {
		return limit
	}
	return c
}

var _ BatchIndex = (*Linear)(nil)
