package engine

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dbsvec/internal/index"
	"dbsvec/internal/index/indextest"
	"dbsvec/internal/vec"
)

func testDataset(t *testing.T, n, d int, seed int64) *vec.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, n*d)
	for i := range coords {
		coords[i] = rng.Float64() * 100
	}
	ds, err := vec.NewDataset(coords, d)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNeighborhoodsMatchSequential(t *testing.T) {
	ds := testDataset(t, 400, 3, 1)
	lin := indextest.Linear(ds)
	ids := []int32{0, 7, 399, 123, 7} // duplicates allowed
	for _, workers := range []int{1, 2, 8} {
		eng := New(ds, lin, 9, workers)
		hoods, err := eng.Neighborhoods(context.Background(), ids)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(hoods) != len(ids) {
			t.Fatalf("workers=%d: %d hoods for %d ids", workers, len(hoods), len(ids))
		}
		for i, id := range ids {
			want := lin.RangeQuery(ds.Point(int(id)), 9, nil)
			if len(hoods[i]) != len(want) {
				t.Fatalf("workers=%d id %d: got %d ids want %d", workers, id, len(hoods[i]), len(want))
			}
			for j := range want {
				if hoods[i][j] != want[j] {
					t.Fatalf("workers=%d id %d: got %v want %v", workers, id, hoods[i], want)
				}
			}
		}
	}
}

func TestArenaReuseAcrossRounds(t *testing.T) {
	ds := testDataset(t, 300, 2, 2)
	eng := New(ds, indextest.Linear(ds), 8, 4)
	lin := indextest.Linear(ds)
	// Varying round sizes exercise arena growth and shrink paths.
	rounds := [][]int32{{1, 2, 3, 4, 5, 6, 7, 8}, {9}, {10, 11, 12}, {13, 14, 15, 16, 17, 18, 19, 20, 21, 22}}
	for _, ids := range rounds {
		hoods, err := eng.Neighborhoods(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			want := lin.RangeQuery(ds.Point(int(id)), 8, nil)
			if len(hoods[i]) != len(want) {
				t.Fatalf("round ids %v, id %d: got %d want %d", ids, id, len(hoods[i]), len(want))
			}
		}
		counts, err := eng.Counts(context.Background(), ids, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			want := lin.RangeCount(ds.Point(int(id)), 8, 5)
			if counts[i] != want {
				t.Fatalf("count id %d = %d, want %d", id, counts[i], want)
			}
		}
	}
}

func TestAllNeighborhoodsOwned(t *testing.T) {
	ds := testDataset(t, 250, 2, 3)
	eng := New(ds, indextest.Linear(ds), 7, 0)
	hoods, err := eng.AllNeighborhoodsOwned(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hoods) != ds.Len() {
		t.Fatalf("got %d hoods, want %d", len(hoods), ds.Len())
	}
	// Owned results must survive later engine calls.
	snapshot := append([]int32(nil), hoods[0]...)
	if _, err := eng.Neighborhoods(context.Background(), []int32{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if hoods[0][i] != snapshot[i] {
			t.Fatal("owned neighborhood mutated by a later engine call")
		}
	}
	counts, err := eng.AllCountsOwned(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hoods {
		want := len(h)
		if want > 4 {
			want = 4
		}
		if counts[i] < want {
			t.Fatalf("count %d = %d, want >= %d", i, counts[i], want)
		}
	}
}

// cancellingIndex cancels the run's context after a fixed number of
// queries, simulating user cancellation arriving mid-batch.
type cancellingIndex struct {
	index.Index
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

func TestCancellationInsideBatch(t *testing.T) {
	ds := testDataset(t, 500, 2, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ci := &cancellingIndex{Index: indextest.Linear(ds), cancel: cancel, after: 20}
	eng := New(ds, ci, 8, 4)
	_, err := eng.AllNeighborhoodsOwned(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen := ci.seen.Load(); seen >= int64(ds.Len()) {
		t.Errorf("batch ran to completion (%d queries) despite cancellation", seen)
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(3); got != 3 {
		t.Errorf("ResolveWorkers(3) = %d", got)
	}
	if got := ResolveWorkers(0); got < 1 {
		t.Errorf("ResolveWorkers(0) = %d, want >= 1", got)
	}
}

func TestPhaseTimes(t *testing.T) {
	var p PhaseTimes
	sw := StartPhase()
	time.Sleep(time.Millisecond)
	sw.Stop(&p.Init)
	sw = StartPhase()
	sw.Stop(&p.Expand)
	if p.Init <= 0 {
		t.Errorf("Init = %v, want > 0", p.Init)
	}
	if p.Total() != p.Init+p.Expand+p.Verify {
		t.Errorf("Total mismatch")
	}
}
