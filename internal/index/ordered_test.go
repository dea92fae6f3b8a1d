package index_test

import (
	"context"
	"testing"

	"dbsvec/internal/index"
	"dbsvec/internal/index/kdtree"
)

// A steady-state single query allocates nothing, even where it reads every
// row of an index built on several workers: it runs on its caller, with
// its reach bitset from the idle ones. That holds for the linear
// scan over the dataset's own order and for the kd-tree's scan over its
// leaf order, whose hits are mapped to ids in the caller's buffer.
func TestSingleQuerySteadyStateAllocs(t *testing.T) {
	// Rows of two reach words (4096 rows each) and part of a third.
	ds := index.Shuffled(t, index.WalkDataset(t, 2*4096+77, 8, 4), 4)
	lin, err := index.NewLinear(context.Background(), ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := kdtree.New(context.Background(), ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Point(5)
	const eps = 1e4 // past the walk's extent, so every zone is reachable
	for name, idx := range map[string]interface {
		index.Index
		ReachRows(q []float64, eps float64) int
	}{"linear": lin, "kdtree": kd} {
		if rows := idx.ReachRows(q, eps); rows != ds.Len() {
			t.Fatalf("%s: eps %g reads %d of %d rows, want all", name, eps, rows, ds.Len())
		}
		buf := idx.RangeQuery(q, eps, nil)
		if len(buf) != ds.Len() {
			t.Fatalf("%s: RangeQuery found %d of %d rows", name, len(buf), ds.Len())
		}
		if got := testing.AllocsPerRun(50, func() { buf = idx.RangeQuery(q, eps, buf[:0]) }); got != 0 {
			t.Errorf("%s: RangeQuery: %v allocs per steady-state call, want 0", name, got)
		}
		if got := testing.AllocsPerRun(50, func() { _ = idx.RangeCount(q, eps, 0) }); got != 0 {
			t.Errorf("%s: RangeCount: %v allocs per steady-state call, want 0", name, got)
		}
	}
}
