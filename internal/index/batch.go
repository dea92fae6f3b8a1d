package index

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"dbsvec/internal/fault"
)

// Queries addresses a batch of query points by position. The batch executor
// calls At from multiple goroutines, so At must be safe for concurrent use.
type Queries struct {
	// N is the number of queries in the batch.
	N int
	// At returns the coordinates of query i. The result is read before the
	// next At call by the same worker, never retained.
	At func(i int) []float64
}

// BatchIndex is the batched-query capability: a whole set of range queries
// is submitted as one schedulable unit, fanned across a worker pool, with
// results delivered in query order so callers stay deterministic regardless
// of the worker count. Backends without a native implementation are served
// by the Batch fallback adapter.
type BatchIndex interface {
	Index

	// BatchRangeQuery answers query i into out[i] (appending to out[i][:0],
	// so passing the previous batch's out makes steady-state rounds
	// allocation-free). A nil out allocates. workers <= 0 selects
	// GOMAXPROCS. ctx is checked throughout the batch; on cancellation the
	// partial results are discarded and ctx's error is returned.
	BatchRangeQuery(ctx context.Context, qs Queries, eps float64, workers int, out [][]int32) ([][]int32, error)

	// BatchRangeCount is the counting analogue: out[i] receives the
	// (limit-clamped, as in RangeCount) neighbor count of query i.
	BatchRangeCount(ctx context.Context, qs Queries, eps float64, limit, workers int, out []int) ([]int, error)
}

// Batch upgrades idx to a BatchIndex: indexes with a native batch
// implementation are returned as-is, every other backend is wrapped in a
// fan-out adapter over its per-query methods (valid because Index
// implementations are safe for concurrent readers).
func Batch(idx Index) BatchIndex {
	if b, ok := idx.(BatchIndex); ok {
		return b
	}
	return &fanout{Index: idx}
}

// ClampWorkers resolves a worker-count option against a batch of m queries:
// non-positive selects GOMAXPROCS, and the result never exceeds m.
func ClampWorkers(workers, m int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m {
		workers = m
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// batchStride is the number of consecutive queries a worker claims per
// work-stealing step: large enough to amortize the shared counter and the
// context check, small enough to balance skewed neighborhoods.
const batchStride = 8

// fanout serves batches on any Index by fanning the per-query calls across
// workers that claim strides of query indexes from a shared atomic counter.
// Results are keyed by query index, so output is independent of scheduling.
type fanout struct {
	Index
}

func (f *fanout) BatchRangeQuery(ctx context.Context, qs Queries, eps float64, workers int, out [][]int32) ([][]int32, error) {
	out = growSlices(out, qs.N)
	err := f.run(ctx, qs, workers, func(i int, q []float64) {
		out[i] = f.Index.RangeQuery(q, eps, out[i][:0])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (f *fanout) BatchRangeCount(ctx context.Context, qs Queries, eps float64, limit, workers int, out []int) ([]int, error) {
	if cap(out) < qs.N {
		out = make([]int, qs.N)
	}
	out = out[:qs.N]
	err := f.run(ctx, qs, workers, func(i int, q []float64) {
		out[i] = f.Index.RangeCount(q, eps, limit)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// run executes fn(i, At(i)) for every query index, fanned across workers.
//
// Worker panics are contained: each worker recovers its own panic, records
// it keyed by the query index being processed, and raises a stop flag so the
// remaining workers abandon the batch at their next stride claim. After the
// barrier the panic with the lowest query index is returned as a typed
// *fault.WorkerPanicError — a deterministic choice when one query
// deterministically panics, independent of which worker claimed it. The
// sequential path converts a panic the same way, so both paths report
// batch failures as errors rather than crashing the caller.
func (f *fanout) run(ctx context.Context, qs Queries, workers int, fn func(i int, q []float64)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	m := qs.N
	if m == 0 {
		return ctx.Err()
	}
	workers = ClampWorkers(workers, m)
	if workers == 1 {
		// Sequential fast path on the calling goroutine.
		return func() (err error) {
			defer fault.RecoverTo(&err)
			fault.PanicNow(fault.WorkerPanic)
			for i := 0; i < m; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				fn(i, qs.At(i))
			}
			return nil
		}()
	}
	var next atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	panicIdx := -1
	var panicErr *fault.WorkerPanicError
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			cur := -1
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					pe := fault.AsWorkerPanic(v)
					mu.Lock()
					if panicErr == nil || (cur >= 0 && cur < panicIdx) {
						panicErr, panicIdx = pe, cur
					}
					mu.Unlock()
					stop.Store(true)
				}
			}()
			fault.PanicNow(fault.WorkerPanic)
			for {
				start := int(next.Add(batchStride)) - batchStride
				if start >= m || stop.Load() || ctx.Err() != nil {
					return
				}
				end := start + batchStride
				if end > m {
					end = m
				}
				for i := start; i < end; i++ {
					cur = i
					fn(i, qs.At(i))
				}
			}
		}()
	}
	wg.Wait()
	if panicErr != nil {
		return panicErr
	}
	return ctx.Err()
}

// growSlices extends out to length m, preserving existing entries (whose
// capacity the next batch reuses) and past-length entries still held in the
// backing array from earlier, larger batches.
func growSlices(out [][]int32, m int) [][]int32 {
	if cap(out) < m {
		out = append(out[:cap(out)], make([][]int32, m-cap(out))...)
	}
	return out[:m]
}
