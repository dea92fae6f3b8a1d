package index

import (
	"context"
	"sync/atomic"
	"testing"

	"dbsvec/internal/vec"
)

func batchTestDataset(t *testing.T) *vec.Dataset {
	t.Helper()
	coords := make([]float64, 0, 200*2)
	for i := 0; i < 200; i++ {
		coords = append(coords, float64(i%20), float64(i/20))
	}
	ds, err := vec.NewDataset(coords, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// nativeBatch is an index with its own batch methods, the shape of a
// caller's timing or tracing wrapper.
type nativeBatch struct{ *fanout }

func TestBatchReturnsNativeImplementation(t *testing.T) {
	ds := batchTestDataset(t)
	lin := linear(ds)
	f, ok := Batch(lin).(*fanout)
	if !ok {
		t.Fatalf("Batch(Linear) = %T, want the fan-out adapter", Batch(lin))
	}
	if got := Batch(f); got != BatchIndex(f) {
		t.Errorf("Batch(Batch(Linear)) = %T, want the same adapter", got)
	}
	n := nativeBatch{f}
	if got := Batch(n); got != BatchIndex(n) {
		t.Errorf("Batch(nativeBatch) = %T, want the native implementation", got)
	}
}

func TestFanoutMatchesPerQuery(t *testing.T) {
	ds := batchTestDataset(t)
	lin := linear(ds)
	b := Batch(lin)
	qs := Queries{N: ds.Len(), At: func(i int) []float64 { return ds.Point(i) }}
	for _, workers := range []int{1, 2, 7, 100} {
		got, err := b.BatchRangeQuery(context.Background(), qs, 1.5, workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			want := lin.RangeQuery(ds.Point(i), 1.5, nil)
			if len(got[i]) != len(want) {
				t.Fatalf("workers=%d query %d: got %v want %v", workers, i, got[i], want)
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("workers=%d query %d: got %v want %v (order must match the per-query call)", workers, i, got[i], want)
				}
			}
		}
	}
}

func TestFanoutEmptyBatch(t *testing.T) {
	ds := batchTestDataset(t)
	b := Batch(linear(ds))
	out, err := b.BatchRangeQuery(context.Background(), Queries{N: 0}, 1, 4, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
	counts, err := b.BatchRangeCount(context.Background(), Queries{N: 0}, 1, 0, 4, nil)
	if err != nil || len(counts) != 0 {
		t.Fatalf("empty count batch: out=%v err=%v", counts, err)
	}
}

func TestFanoutNilContext(t *testing.T) {
	ds := batchTestDataset(t)
	b := Batch(linear(ds))
	qs := Queries{N: 3, At: func(i int) []float64 { return ds.Point(i) }}
	if _, err := b.BatchRangeQuery(nil, qs, 1, 2, nil); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
}

// cancellingIndex cancels the shared context after a fixed number of
// queries, simulating cancellation arriving mid-batch.
type cancellingIndex struct {
	Index
	cancel context.CancelFunc
	after  int64
	seen   atomic.Int64
}

func (c *cancellingIndex) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	if c.seen.Add(1) == c.after {
		c.cancel()
	}
	return c.Index.RangeQuery(q, eps, buf)
}

func TestFanoutCancelMidBatch(t *testing.T) {
	ds := batchTestDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ci := &cancellingIndex{Index: linear(ds), cancel: cancel, after: 10}
	b := Batch(Index(ci))
	qs := Queries{N: ds.Len(), At: func(i int) []float64 { return ds.Point(i) }}
	if _, err := b.BatchRangeQuery(ctx, qs, 1.5, 4, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen := ci.seen.Load(); seen >= int64(ds.Len()) {
		t.Errorf("batch ran to completion (%d queries) despite cancellation", seen)
	}
}

func TestClampWorkers(t *testing.T) {
	cases := []struct{ w, m, min, max int }{
		{0, 100, 1, 10000}, // GOMAXPROCS, whatever it is
		{5, 100, 5, 5},
		{5, 3, 3, 3},
		{-1, 0, 1, 1},
	}
	for _, c := range cases {
		got := ClampWorkers(c.w, c.m)
		if got < c.min || got > c.max {
			t.Errorf("ClampWorkers(%d, %d) = %d, want in [%d,%d]", c.w, c.m, got, c.min, c.max)
		}
	}
}
