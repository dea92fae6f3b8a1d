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

// tileBytes is the size of the row tile a scan item runs all its queries
// over before it moves on, so the tile comes from memory once per item and
// from L1 for the rest of its queries: 256 rows at d=8 in float64, a third
// of a 48 KiB L1d. Measured with benchall -exp index's split rows at
// n=40k, d=8 on 2 vCPUs (Xeon, 48 KiB L1d, 2 MiB L2), two runs per
// setting: 100 batches of 12 queries on 2 workers took 68/68 ms with
// 16 KiB tiles, 87–94 ms with 8 KiB, 92–144 ms with 32 KiB and 68–88 ms
// with 64 KiB; the 512-query count batches were within noise of each
// other (254–381 ms for 20 batches).
const tileBytes = 16 << 10

// queryChunk is the most queries one scan item runs over its row block.
// Fewer queries per tile reread the tile more often; more leave a
// many-query batch over a small dataset with too few items to fan out. In
// the same sweep, chunks of 4 and 16 queries took 83–86 and 73–79 ms for
// the 12-query batches with 16 KiB tiles, against 68/68 ms for 8.
const queryChunk = 8

// Linear is the exhaustive-scan index: O(n) per query, zero build cost,
// no extra memory. It is the ground-truth oracle for all other indexes.
//
// Every scan, single or batched, runs one block-major schedule (scan): the
// rows split into contiguous blocks of minBlockRows to 2·minBlockRows rows
// (one block on one worker), the queries into chunks of queryChunk, and
// each engine.For item, one (chunk, block) pair, walks its block in
// tiles of tileBytes, running every query of the chunk on a tile before it
// moves on. The workers claim items one at a time: a worker whose CPU wakes
// late still takes its share, where one block per worker would leave the
// scan waiting for it. A query's block results are concatenated in block
// order, so it returns the ascending ids dist.FilterWithin returns, and
// its block counts are summed and clamped at the limit, which is
// dist.CountWithin's value: the schedule changes speed, never a result.
type Linear struct {
	ds *vec.Dataset
	// workers and blocks size a single query's split; blocks == 1 scans
	// whole on the caller.
	workers int
	blocks  int
	// tile is the number of rows in tileBytes, a multiple of four so only
	// a block's last tile has rows past its last four-row quad.
	tile int
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
	return &Linear{ds: ds, workers: workers, blocks: blocksFor(ds.Len(), 1, workers), tile: tileRows(ds.Matrix())}, nil
}

// tileRows is the number of m's rows in tileBytes, rounded down to a
// multiple of four (at least four).
func tileRows(m dist.Matrix) int {
	size := 8
	if m.Coords32 != nil {
		size = 4
	}
	return max(4, tileBytes/(max(m.Dim, 1)*size)) &^ 3
}

// blocksFor is the number of row blocks a scan of queries queries over n
// rows on workers splits into: 1 on one worker, else as many as give each
// block at least minBlockRows rows, divided among the query chunks. A
// batch thus runs about as many items as a single query, and never fewer
// than its chunks. Splitting less matters for counts: a block stops only at
// its own limit, so 512 limit-100 counts at n=40k on 2 workers took 307–334
// ms per 20 batches on 1 block against 486–592 ms on 9 (benchall split
// rows). It also keeps a many-query batch's block arena small.
func blocksFor(n, queries, workers int) int {
	if workers <= 1 {
		return 1
	}
	chunks := max(1, (queries+queryChunk-1)/queryChunk)
	return max(1, n/minBlockRows/chunks)
}

// block returns the rows [lo, hi) of block b of nb over n rows. The blocks
// tile [0, n) in order, which is what makes the concatenation of block
// results in block order ascending.
func block(n, nb, b int) (lo, hi int) { return b * n / nb, (b + 1) * n / nb }

// Len returns the number of indexed points.
func (l *Linear) Len() int { return l.ds.Len() }

// RangeQuery implements Index via the fused filter kernel.
func (l *Linear) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	if l.blocks == 1 {
		return dist.FilterWithin(l.ds.Matrix(), q, eps*eps, buf)
	}
	s := l.getScratch()
	// A background ctx never cancels, so the schedule cannot fail.
	_ = l.scan(context.Background(), l.workers, single(q), eps, 0, l.blocks, s.ids, nil)
	for _, part := range s.ids {
		buf = append(buf, part...)
	}
	l.scratch.Put(s)
	return buf
}

// RangeCount implements Index via the fused count kernel.
func (l *Linear) RangeCount(q []float64, eps float64, limit int) int {
	if l.blocks == 1 {
		return dist.CountWithin(l.ds.Matrix(), q, eps*eps, limit)
	}
	s := l.getScratch()
	_ = l.scan(context.Background(), l.workers, single(q), eps, limit, l.blocks, nil, s.counts)
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

// BatchRangeQuery implements BatchIndex on the one schedule. It never
// calls the splitting RangeQuery, so there is no nested fan-out. With one
// block each query's ids land in out[i]; with nb > 1 its block results
// live in out's backing array past qs.N until they are concatenated into
// out[i].
func (l *Linear) BatchRangeQuery(ctx context.Context, qs Queries, eps float64, workers int, out [][]int32) (_ [][]int32, err error) {
	if err := fault.Error(fault.IndexQueryError); err != nil {
		return nil, err
	}
	defer fault.RecoverTo(&err)
	nb, size := l.batchSize(qs.N, workers)
	out = growSlices(out, size)
	parts := out[size-qs.N*nb:]
	if err := l.scan(ctx, workers, qs, eps, 0, nb, parts, nil); err != nil {
		return nil, err
	}
	if nb > 1 {
		for i := range qs.N {
			out[i] = out[i][:0]
			for _, part := range parts[i*nb : (i+1)*nb] {
				out[i] = append(out[i], part...)
			}
		}
	}
	return out[:qs.N], nil
}

// BatchRangeCount implements BatchIndex on the one schedule, with
// BatchRangeQuery's layout: query i's block counts are summed into out[i].
func (l *Linear) BatchRangeCount(ctx context.Context, qs Queries, eps float64, limit, workers int, out []int) (_ []int, err error) {
	if err := fault.Error(fault.IndexQueryError); err != nil {
		return nil, err
	}
	defer fault.RecoverTo(&err)
	nb, size := l.batchSize(qs.N, workers)
	if cap(out) < size {
		out = make([]int, size)
	}
	out = out[:size]
	parts := out[size-qs.N*nb:]
	if err := l.scan(ctx, workers, qs, eps, limit, nb, nil, parts); err != nil {
		return nil, err
	}
	for i := range qs.N {
		out[i] = clampSum(parts[i*nb:(i+1)*nb], limit)
	}
	return out[:qs.N], nil
}

// batchSize returns the row blocks of a batch of queries on workers and
// the length of its out arena: the answers, plus one part per query and
// block when there is more than one block. In both cases the parts are the
// arena's last queries·nb entries.
func (l *Linear) batchSize(queries, workers int) (nb, size int) {
	nb = blocksFor(l.ds.Len(), queries, engine.ResolveWorkers(workers))
	if nb == 1 {
		return 1, queries
	}
	return nb, queries * (1 + nb)
}

// scan is the linear scan's one schedule. It answers query i of qs on row
// block b of nb into hoods[i*nb+b] (the ids within eps, ascending) or,
// with nil hoods, into counts[i*nb+b] (the count within eps, never past a
// limit > 0). Each engine.For item is one chunk of up to queryChunk
// queries on one row block, walked in tiles of l.tile rows; every query of
// the chunk runs on a tile before the next tile, so a tile is read once
// per item. A count that has reached the limit skips the block's later
// tiles.
func (l *Linear) scan(ctx context.Context, workers int, qs Queries, eps float64, limit, nb int, hoods [][]int32, counts []int) error {
	m, eps2, n := l.ds.Matrix(), eps*eps, l.ds.Len()
	chunks := (qs.N + queryChunk - 1) / queryChunk
	return engine.For(ctx, workers, chunks*nb, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			c, b := k/nb, k%nb
			q0, q1 := c*queryChunk, min((c+1)*queryChunk, qs.N)
			for i := q0; i < q1; i++ {
				if hoods != nil {
					hoods[i*nb+b] = hoods[i*nb+b][:0]
				} else {
					counts[i*nb+b] = 0
				}
			}
			r0, r1 := block(n, nb, b)
			for t0 := r0; t0 < r1; t0 += l.tile {
				t1 := min(t0+l.tile, r1)
				for i := q0; i < q1; i++ {
					j := i*nb + b
					if hoods != nil {
						hoods[j] = dist.FilterWithinRange(m, qs.At(i), eps2, t0, t1, hoods[j])
						continue
					}
					left := 0
					if limit > 0 {
						if left = limit - counts[j]; left == 0 {
							continue
						}
					}
					counts[j] += dist.CountWithinRange(m, qs.At(i), eps2, t0, t1, left)
				}
			}
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
