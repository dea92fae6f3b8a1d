// Package index defines the spatial-index contract shared by every
// clustering algorithm in this repository and provides the brute-force
// linear-scan implementation that serves both as the correctness oracle in
// property tests and as DBSVEC's default backend (the paper's DBSVEC needs
// no extra index structure).
package index

import (
	"context"
	"sync/atomic"

	"dbsvec/internal/vec"
)

// Index answers Euclidean range queries over a fixed dataset. Implementations
// are safe for concurrent readers after construction.
//
// Query results contain point ids (0..n-1) including the query point itself
// when the query coincides with an indexed point; order is unspecified.
type Index interface {
	// RangeQuery appends the ids of all points within distance eps of q to
	// buf and returns the extended slice. Passing a reused buf[:0] keeps the
	// hot path allocation free.
	RangeQuery(q []float64, eps float64, buf []int32) []int32

	// RangeCount returns |{p : dist(p,q) <= eps}| without materializing ids.
	// limit > 0 allows early exit once the count reaches limit; limit <= 0
	// counts exhaustively.
	RangeCount(q []float64, eps float64, limit int) int

	// Len returns the number of indexed points.
	Len() int
}

// CtxBuilder is the one construction contract every consumer accepts: it
// builds an Index over ds, and a build observing ctx's cancellation abandons
// its partial structure and returns ctx's error.
type CtxBuilder func(ctx context.Context, ds *vec.Dataset) (Index, error)

// Bind turns a backend constructor of the shared form
// New(ctx, ds, workers) (*T, error) into a CtxBuilder that builds with the
// given worker count. A failed build yields a nil Index, never a typed nil.
func Bind[T Index](build func(context.Context, *vec.Dataset, int) (T, error), workers int) CtxBuilder {
	return func(ctx context.Context, ds *vec.Dataset) (Index, error) {
		idx, err := build(ctx, ds, workers)
		if err != nil {
			return nil, err
		}
		return idx, nil
	}
}

// BuildLinear builds a Linear index.
//
// Deprecated: kept for perfbench; remove with the next benchmark change.
var BuildLinear = Bind(NewLinear, 0)

// WithContext returns b unchanged: every builder already honours ctx.
//
// Deprecated: kept for perfbench; remove with the next benchmark change.
func WithContext(b CtxBuilder) CtxBuilder { return b }

// Linear is the exhaustive-scan index: O(n) per query, zero build cost,
// no extra memory. It is the ground-truth oracle for all other indexes.
type Linear struct {
	ds *vec.Dataset
}

// NewLinear wraps a dataset in a linear-scan index. There is nothing to
// build, so workers is unused and ctx is checked once; batches fan across
// workers in the batch executor instead.
func NewLinear(ctx context.Context, ds *vec.Dataset, _ int) (*Linear, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return &Linear{ds: ds}, nil
}

// Len returns the number of indexed points.
func (l *Linear) Len() int { return l.ds.Len() }

// RangeQuery implements Index via the fused filter kernel.
func (l *Linear) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	return l.ds.FilterWithin(q, eps*eps, buf)
}

// RangeCount implements Index via the fused count kernel.
func (l *Linear) RangeCount(q []float64, eps float64, limit int) int {
	return l.ds.CountWithin(q, eps*eps, limit)
}

var _ Index = (*Linear)(nil)

// CountingIndex wraps another index and counts the number of range queries
// and range counts issued through it. It is used by the experiment harness
// to validate the paper's O(θn) cost analysis (Section III-D). Counters are
// updated atomically so the index stays safe under the batch executor;
// read them only after the queries of interest have completed.
type CountingIndex struct {
	Inner   Index
	Queries int64
	Counts  int64
}

// Len returns the number of indexed points.
func (c *CountingIndex) Len() int { return c.Inner.Len() }

// RangeQuery implements Index and increments the query counter.
func (c *CountingIndex) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	atomic.AddInt64(&c.Queries, 1)
	return c.Inner.RangeQuery(q, eps, buf)
}

// RangeCount implements Index and increments the count counter.
func (c *CountingIndex) RangeCount(q []float64, eps float64, limit int) int {
	atomic.AddInt64(&c.Counts, 1)
	return c.Inner.RangeCount(q, eps, limit)
}

// BatchRangeQuery implements BatchIndex: the batch counts once as qs.N
// queries, then runs on the inner index's batch path directly so the
// per-query counting wrapper is not re-entered concurrently.
func (c *CountingIndex) BatchRangeQuery(ctx context.Context, qs Queries, eps float64, workers int, out [][]int32) ([][]int32, error) {
	atomic.AddInt64(&c.Queries, int64(qs.N))
	return Batch(c.Inner).BatchRangeQuery(ctx, qs, eps, workers, out)
}

// BatchRangeCount implements BatchIndex (see BatchRangeQuery).
func (c *CountingIndex) BatchRangeCount(ctx context.Context, qs Queries, eps float64, limit, workers int, out []int) ([]int, error) {
	atomic.AddInt64(&c.Counts, int64(qs.N))
	return Batch(c.Inner).BatchRangeCount(ctx, qs, eps, limit, workers, out)
}

var _ Index = (*CountingIndex)(nil)
var _ BatchIndex = (*CountingIndex)(nil)
