// Package index defines the spatial-index contract shared by every
// clustering algorithm in this repository and provides the linear scan,
// DBSVEC's default backend (the paper's DBSVEC needs no extra index
// structure): an exhaustive scan that reads only the row zones whose
// bounding boxes a query's ε-ball reaches, over the dataset's rows or over
// rows a backend packed in its own order (the kd-tree's leaves). Property tests check it, like
// every backend, against the unpruned fused kernels of internal/dist.
package index

import (
	"context"

	"dbsvec/internal/vec"
)

// Index answers Euclidean range queries over a fixed dataset. Implementations
// are safe for concurrent readers after construction.
//
// Query results contain point ids (0..n-1) including the query point itself
// when the query coincides with an indexed point; order is unspecified, and
// no algorithm in this repository depends on it: DBSVEC sorts every
// neighborhood it receives, and DBSCAN's passes read only the id set, so the
// backend changes speed, never labels.
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
