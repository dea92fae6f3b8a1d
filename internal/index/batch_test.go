package index

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"dbsvec/internal/fault"
	"dbsvec/internal/leakcheck"
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

// plain hides a backend's batch methods, as any index without them.
type plain struct{ Index }

func TestBatchReturnsNativeImplementation(t *testing.T) {
	ds := batchTestDataset(t)
	lin := linear(ds)
	if got := Batch(lin); got != BatchIndex(lin) {
		t.Fatalf("Batch(Linear) = %T, want the Linear itself", got)
	}
	f, ok := Batch(plain{lin}).(*fanout)
	if !ok {
		t.Fatalf("Batch(plain) = %T, want the fan-out adapter", Batch(plain{lin}))
	}
	if got := Batch(f); got != BatchIndex(f) {
		t.Errorf("Batch(Batch(plain)) = %T, want the same adapter", got)
	}
	n := nativeBatch{f}
	if got := Batch(n); got != BatchIndex(n) {
		t.Errorf("Batch(nativeBatch) = %T, want the native implementation", got)
	}
}

// batchImpls are the two batch executors over the linear scan: its native
// batch path and the fan-out adapter every other backend uses.
func batchImpls(lin *Linear) map[string]BatchIndex {
	return map[string]BatchIndex{"native": lin, "fanout": Batch(plain{lin})}
}

func TestFanoutMatchesPerQuery(t *testing.T) {
	ds := batchTestDataset(t)
	lin := linear(ds)
	for name, b := range batchImpls(lin) {
		qs := Queries{N: ds.Len(), At: func(i int) []float64 { return ds.Point(i) }}
		for _, workers := range []int{1, 2, 7, 100} {
			got, err := b.BatchRangeQuery(context.Background(), qs, 1.5, workers, nil)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", name, workers, err)
			}
			for i := range got {
				want := lin.RangeQuery(ds.Point(i), 1.5, nil)
				if len(got[i]) != len(want) {
					t.Fatalf("%s: workers=%d query %d: got %v want %v", name, workers, i, got[i], want)
				}
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("%s: workers=%d query %d: got %v want %v (order must match the per-query call)", name, workers, i, got[i], want)
					}
				}
			}
		}
	}
}

func TestFanoutEmptyBatch(t *testing.T) {
	ds := batchTestDataset(t)
	for name, b := range batchImpls(linear(ds)) {
		out, err := b.BatchRangeQuery(context.Background(), Queries{N: 0}, 1, 4, nil)
		if err != nil || len(out) != 0 {
			t.Fatalf("%s: empty batch: out=%v err=%v", name, out, err)
		}
		counts, err := b.BatchRangeCount(context.Background(), Queries{N: 0}, 1, 0, 4, nil)
		if err != nil || len(counts) != 0 {
			t.Fatalf("%s: empty count batch: out=%v err=%v", name, counts, err)
		}
	}
}

func TestFanoutNilContext(t *testing.T) {
	ds := batchTestDataset(t)
	for name, b := range batchImpls(linear(ds)) {
		qs := Queries{N: 3, At: func(i int) []float64 { return ds.Point(i) }}
		if _, err := b.BatchRangeQuery(nil, qs, 1, 2, nil); err != nil {
			t.Fatalf("%s: nil ctx: %v", name, err)
		}
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

// Steady-state rounds pass the previous round's results back in: the arenas
// grow and shrink with the round size (duplicate ids included) and every
// round still answers exactly.
func TestArenaReuseAcrossRounds(t *testing.T) {
	ds := batchTestDataset(t)
	lin := linear(ds)
	for name, b := range batchImpls(lin) {
		rounds := [][]int32{{1, 2, 3, 4, 5, 6, 7, 8}, {9}, {10, 11, 12, 10}, {13, 14, 15, 16, 17, 18, 19, 20, 21, 199}}
		var hoods [][]int32
		var counts []int
		for _, workers := range []int{1, 4} {
			for _, ids := range rounds {
				var err error
				hoods, err = b.BatchRangeQuery(context.Background(), PointQueries(ds, ids), 1.5, workers, hoods)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				counts, err = b.BatchRangeCount(context.Background(), PointQueries(ds, ids), 1.5, 3, workers, counts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(hoods) != len(ids) || len(counts) != len(ids) {
					t.Fatalf("%s: round %v: %d hoods, %d counts", name, ids, len(hoods), len(counts))
				}
				for i, id := range ids {
					want := lin.RangeQuery(ds.Point(int(id)), 1.5, nil)
					if !slices.Equal(hoods[i], want) {
						t.Fatalf("%s: workers=%d round %v id %d: got %v want %v", name, workers, ids, id, hoods[i], want)
					}
					if wantN := lin.RangeCount(ds.Point(int(id)), 1.5, 3); counts[i] != wantN {
						t.Fatalf("%s: workers=%d round %v id %d: count %d want %d", name, workers, ids, id, counts[i], wantN)
					}
				}
			}
		}
	}
}

// PointQueries(ds, nil) addresses every point; results passed no arena are
// the caller's and survive later batches.
func TestBatchAllPoints(t *testing.T) {
	ds := batchTestDataset(t)
	lin := linear(ds)
	for name, b := range batchImpls(lin) {
		hoods, err := b.BatchRangeQuery(context.Background(), PointQueries(ds, nil), 1.5, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(hoods) != ds.Len() {
			t.Fatalf("%s: got %d hoods, want %d", name, len(hoods), ds.Len())
		}
		snapshot := slices.Clone(hoods[0])
		if _, err := b.BatchRangeQuery(context.Background(), PointQueries(ds, []int32{5, 6, 7}), 1.5, 2, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(hoods[0], snapshot) {
			t.Fatalf("%s: owned neighborhood mutated by a later batch", name)
		}
		counts, err := b.BatchRangeCount(context.Background(), PointQueries(ds, nil), 1.5, 0, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, h := range hoods {
			if want := lin.RangeQuery(ds.Point(i), 1.5, nil); !slices.Equal(h, want) || counts[i] != len(want) {
				t.Fatalf("%s: point %d: hood %v count %d, want %v", name, i, h, counts[i], want)
			}
		}
	}
}

func TestBatchEntryInjectedError(t *testing.T) {
	ds := batchTestDataset(t)
	restore := fault.Activate(fault.NewInjector(1).Arm(fault.IndexQueryError, fault.Always()))
	defer restore()
	for name, b := range batchImpls(linear(ds)) {
		for _, ids := range [][]int32{{0, 1}, nil} {
			if _, err := b.BatchRangeQuery(context.Background(), PointQueries(ds, ids), 1.5, 2, nil); !errors.Is(err, fault.ErrInjected) {
				t.Errorf("%s: BatchRangeQuery(%v) err = %v, want injected", name, ids, err)
			}
			if _, err := b.BatchRangeCount(context.Background(), PointQueries(ds, ids), 1.5, 2, 2, nil); !errors.Is(err, fault.ErrInjected) {
				t.Errorf("%s: BatchRangeCount(%v) err = %v, want injected", name, ids, err)
			}
		}
	}
}

// panickingIndex panics on one query point, as a faulty backend would.
type panickingIndex struct {
	Index
	at []float64
}

func (p *panickingIndex) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	if slices.Equal(q, p.at) {
		panic("bad query")
	}
	return p.Index.RangeQuery(q, eps, buf)
}

func (p *panickingIndex) RangeCount(q []float64, eps float64, limit int) int {
	if slices.Equal(q, p.at) {
		panic("bad query")
	}
	return p.Index.RangeCount(q, eps, limit)
}

// A panic inside a batch is an error on the 1-worker path (where the query
// runs on the caller) and on the parallel path, never a crash; an injected
// worker panic is one too.
func TestBatchWorkerPanicBecomesError(t *testing.T) {
	leakcheck.Check(t)
	ds := batchTestDataset(t)
	b := Batch(Index(&panickingIndex{Index: linear(ds), at: ds.Point(37)}))
	for _, workers := range []int{1, 4} {
		_, err := b.BatchRangeQuery(context.Background(), PointQueries(ds, nil), 1.5, workers, nil)
		var wp *fault.WorkerPanicError
		if !errors.As(err, &wp) || wp.Value != "bad query" {
			t.Fatalf("BatchRangeQuery workers=%d: err = %v, want the query's worker panic", workers, err)
		}
		_, err = b.BatchRangeCount(context.Background(), PointQueries(ds, nil), 1.5, 0, workers, nil)
		if !errors.As(err, &wp) || wp.Value != "bad query" {
			t.Fatalf("BatchRangeCount workers=%d: err = %v, want the query's worker panic", workers, err)
		}
	}

	restore := fault.Activate(fault.NewInjector(1).Arm(fault.WorkerPanic, fault.Nth(1)))
	defer restore()
	_, err := Batch(linear(ds)).BatchRangeQuery(context.Background(), PointQueries(ds, nil), 1.5, 4, nil)
	var wp *fault.WorkerPanicError
	if !errors.As(err, &wp) || !errors.Is(wp.Value.(error), fault.ErrInjected) {
		t.Fatalf("err = %v, want the injected worker panic", err)
	}
}
