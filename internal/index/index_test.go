package index

import (
	"context"
	"math/rand"
	"testing"

	"dbsvec/internal/vec"
)

func randomDataset(t testing.TB, n, d int, seed int64) *vec.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, n*d)
	for i := range coords {
		coords[i] = rng.Float64() * 100
	}
	ds, err := vec.NewDataset(coords, d)
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	return ds
}

// linear builds the Linear index over ds (NewLinear fails only on a
// cancelled ctx).
func linear(ds *vec.Dataset) *Linear {
	lin, _ := NewLinear(context.Background(), ds, 1)
	return lin
}

func TestLinearRangeQuery(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0, 0}, {1, 0}, {5, 5}, {0.5, 0.5}})
	idx := linear(ds)
	got := idx.RangeQuery([]float64{0, 0}, 1.1, nil)
	want := map[int32]bool{0: true, 1: true, 3: true}
	if len(got) != len(want) {
		t.Fatalf("got %v, want ids %v", got, want)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected id %d", id)
		}
	}
}

func TestLinearRangeQueryBoundary(t *testing.T) {
	// Distance exactly eps must be included (<= in Definition 1).
	ds, _ := vec.FromRows([][]float64{{0}, {2}})
	idx := linear(ds)
	got := idx.RangeQuery([]float64{0}, 2, nil)
	if len(got) != 2 {
		t.Errorf("boundary point excluded: got %v", got)
	}
}

func TestLinearRangeCountLimit(t *testing.T) {
	ds := randomDataset(t, 100, 2, 1)
	idx := linear(ds)
	full := idx.RangeCount(ds.Point(0), 50, 0)
	if full < 2 {
		t.Fatalf("expected several points in range, got %d", full)
	}
	if got := idx.RangeCount(ds.Point(0), 50, 3); got != 3 {
		t.Errorf("limited count = %d, want 3", got)
	}
	if got := idx.RangeCount(ds.Point(0), 50, full+10); got != full {
		t.Errorf("count with generous limit = %d, want %d", got, full)
	}
}

func TestLinearEmpty(t *testing.T) {
	ds, _ := vec.FromRows(nil)
	idx := linear(ds)
	if idx.Len() != 0 {
		t.Error("Len should be 0")
	}
	if got := idx.RangeQuery([]float64{0}, 1, nil); len(got) != 0 {
		t.Errorf("query on empty index returned %v", got)
	}
}
