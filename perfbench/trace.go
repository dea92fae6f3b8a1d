package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dbsvec"
	"dbsvec/internal/index"
	"dbsvec/internal/index/kdtree"
	"dbsvec/internal/vec"
)

// backend resolves an IndexKind to the construction function
// dbsvec.ClusterContext uses for it. It is the benchmark's single call site
// for backend constructors; only the kinds the workloads run are listed.
func backend(kind dbsvec.IndexKind, workers int) (index.CtxBuilder, error) {
	switch kind {
	case dbsvec.IndexLinear:
		return index.WithContext(index.BuildLinear), nil
	case dbsvec.IndexKDTree:
		return kdtree.BuildWorkersCtx(workers), nil
	}
	return nil, fmt.Errorf("perfbench: no backend for index kind %d", kind)
}

// Phases of a DBSVEC run as the index sees them. core issues a single
// RangeQuery only for seed tests (initialization), batched RangeQuery only
// for support-vector expansion, and batched RangeCount only for noise
// verification; single RangeCount core tests belong to whichever of those
// ran last.
const (
	phaseInit = iota
	phaseExpand
	phaseVerify
	numPhases
)

// indexTrace accumulates what a timedIndex saw during one run.
type indexTrace struct {
	build time.Duration

	queryCalls, countCalls            atomic.Int64
	batchQueryCalls, batchQueryPoints atomic.Int64
	batchCountPoints                  atomic.Int64
	queryNs, countNs                  atomic.Int64
	batchQueryNs, batchCountNs        atomic.Int64
	phaseNs                           [numPhases]atomic.Int64
	phase                             atomic.Int32

	spans *spanLog
	op    int64 // span op and parent of every span this trace records
}

// wrap returns a builder that times inner's construction and wraps the
// index it builds in a timedIndex reporting to t.
func (t *indexTrace) wrap(inner index.CtxBuilder) index.CtxBuilder {
	return func(ctx context.Context, ds *vec.Dataset) (index.Index, error) {
		start := time.Now()
		idx, err := inner(ctx, ds)
		t.build = time.Since(start)
		t.spans.Add(0, t.op, t.op, "index.build", start, t.build)
		if err != nil {
			return nil, err
		}
		return &timedIndex{inner: idx, t: t}, nil
	}
}

// total is the index time of the run: construction plus every query.
func (t *indexTrace) total() time.Duration {
	return t.build + time.Duration(t.queryNs.Load()+t.countNs.Load()+t.batchQueryNs.Load()+t.batchCountNs.Load())
}

// queries is the number of ε-queries the run issued, single or batched.
func (t *indexTrace) queries() int64 {
	return t.queryCalls.Load() + t.countCalls.Load() + t.batchQueryPoints.Load() + t.batchCountPoints.Load()
}

func (t *indexTrace) record(phase int32, since time.Time, acc *atomic.Int64) {
	ns := int64(time.Since(since))
	acc.Add(ns)
	t.phaseNs[phase].Add(ns)
}

// timedIndex forwards every call to inner and times it. Batches go through
// index.Batch(inner), as index.CountingIndex does, so the engine takes the
// same path it takes over an unwrapped index.
type timedIndex struct {
	inner index.Index
	t     *indexTrace
}

var _ index.BatchIndex = (*timedIndex)(nil)

func (x *timedIndex) Len() int { return x.inner.Len() }

func (x *timedIndex) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	x.t.phase.Store(phaseInit)
	start := time.Now()
	out := x.inner.RangeQuery(q, eps, buf)
	x.t.queryCalls.Add(1)
	x.t.record(phaseInit, start, &x.t.queryNs)
	return out
}

func (x *timedIndex) RangeCount(q []float64, eps float64, limit int) int {
	start := time.Now()
	n := x.inner.RangeCount(q, eps, limit)
	x.t.countCalls.Add(1)
	x.t.record(x.t.phase.Load(), start, &x.t.countNs)
	return n
}

func (x *timedIndex) BatchRangeQuery(ctx context.Context, qs index.Queries, eps float64, workers int, out [][]int32) ([][]int32, error) {
	x.t.phase.Store(phaseExpand)
	start := time.Now()
	res, err := index.Batch(x.inner).BatchRangeQuery(ctx, qs, eps, workers, out)
	x.t.batchQueryCalls.Add(1)
	x.t.batchQueryPoints.Add(int64(qs.N))
	x.t.record(phaseExpand, start, &x.t.batchQueryNs)
	x.t.spans.Add(0, x.t.op, x.t.op, "index.batch_query", start, time.Since(start))
	return res, err
}

func (x *timedIndex) BatchRangeCount(ctx context.Context, qs index.Queries, eps float64, limit, workers int, out []int) ([]int, error) {
	x.t.phase.Store(phaseVerify)
	start := time.Now()
	res, err := index.Batch(x.inner).BatchRangeCount(ctx, qs, eps, limit, workers, out)
	x.t.batchCountPoints.Add(int64(qs.N))
	x.t.record(phaseVerify, start, &x.t.batchCountNs)
	x.t.spans.Add(0, x.t.op, x.t.op, "index.batch_count", start, time.Since(start))
	return res, err
}
