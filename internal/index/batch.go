package index

import (
	"context"

	"dbsvec/internal/engine"
	"dbsvec/internal/fault"
	"dbsvec/internal/vec"
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

// PointQueries addresses the dataset points ids as a query batch, in ids
// order; nil ids addresses every point of ds. Coordinates are views into
// the dataset.
func PointQueries(ds *vec.Dataset, ids []int32) Queries {
	if ids == nil {
		return Queries{N: ds.Len(), At: ds.Point}
	}
	return Queries{N: len(ids), At: func(i int) []float64 { return ds.Point(int(ids[i])) }}
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
	// allocation-free). The batch owns out's whole backing array: entries
	// past the batch's length may serve as scratch. A nil out allocates.
	// workers <= 0 selects GOMAXPROCS. ctx is checked throughout the batch;
	// on cancellation the partial results are discarded and ctx's error is
	// returned.
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

// fanout serves batches on any Index by running the per-query calls on
// engine.For, one query per step: a query costs far more than a claim, and
// most batches DBSVEC issues hold 2–16 queries, which longer steps would
// leave on one worker. Results are keyed by query index, so output is
// independent of scheduling. Both methods are recover boundaries: a
// panicking query or an injected worker panic comes back as a
// *fault.WorkerPanicError (the lowest panicking chunk's), never as a crash
// of the caller.
type fanout struct {
	Index
}

func (f *fanout) BatchRangeQuery(ctx context.Context, qs Queries, eps float64, workers int, out [][]int32) (_ [][]int32, err error) {
	if err := fault.Error(fault.IndexQueryError); err != nil {
		return nil, err
	}
	defer fault.RecoverTo(&err)
	out = growSlices(out, qs.N)
	err = engine.For(ctx, workers, qs.N, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f.Index.RangeQuery(qs.At(i), eps, out[i][:0])
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (f *fanout) BatchRangeCount(ctx context.Context, qs Queries, eps float64, limit, workers int, out []int) (_ []int, err error) {
	if err := fault.Error(fault.IndexQueryError); err != nil {
		return nil, err
	}
	defer fault.RecoverTo(&err)
	if cap(out) < qs.N {
		out = make([]int, qs.N)
	}
	out = out[:qs.N]
	err = engine.For(ctx, workers, qs.N, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f.Index.RangeCount(qs.At(i), eps, limit)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
