package pyramid

import (
	"math/rand"
	"testing"

	"dbsvec/internal/index"
	"dbsvec/internal/index/indextest"
	"dbsvec/internal/vec"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, "pyramid", Build)
}

func TestConformanceF32(t *testing.T) {
	indextest.RunF32(t, "pyramid", Build)
}

func TestPyramidValueAssignment(t *testing.T) {
	// Center maps to height 0; corners to height 0.5.
	if v := pyramidValue([]float64{0.5, 0.5}); v != float64(int(v)) {
		t.Errorf("center should have zero height, got %v", v)
	}
	v := pyramidValue([]float64{1, 0.5})
	if v != 2+0.5 { // dim 0, positive side => pyramid d+0 = 2 for d=2
		t.Errorf("corner value = %v, want 2.5", v)
	}
	v = pyramidValue([]float64{0, 0.5})
	if v != 0+0.5 { // dim 0, negative side => pyramid 0
		t.Errorf("corner value = %v, want 0.5", v)
	}
}

func TestHighDimensionalQueries(t *testing.T) {
	// The pyramid technique must stay exact in high dimensions.
	rng := rand.New(rand.NewSource(3))
	d := 24
	rows := make([][]float64, 400)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.Float64() * 1000
		}
	}
	ds, _ := vec.FromRows(rows)
	px := New(ds)
	oracle := index.NewLinear(ds)
	for iter := 0; iter < 30; iter++ {
		q := rows[rng.Intn(len(rows))]
		eps := 200 + rng.Float64()*800
		got := px.RangeCount(q, eps, 0)
		want := oracle.RangeCount(q, eps, 0)
		if got != want {
			t.Fatalf("d=24 count %d != %d (eps=%g)", got, want, eps)
		}
	}
}

func TestQueryOutsideDataSpace(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0, 0}, {10, 10}})
	px := New(ds)
	// Far outside: nothing in range.
	if got := px.RangeQuery([]float64{100, 100}, 5, nil); len(got) != 0 {
		t.Errorf("far query returned %v", got)
	}
	// Outside but reaching in.
	if got := px.RangeQuery([]float64{-3, -3}, 5, nil); len(got) != 1 {
		t.Errorf("reaching query returned %v, want the origin point", got)
	}
}

func TestDegenerateDimensions(t *testing.T) {
	// A constant dimension must not break normalization.
	ds, _ := vec.FromRows([][]float64{{1, 7}, {2, 7}, {3, 7}})
	px := New(ds)
	got := px.RangeQuery([]float64{2, 7}, 1.1, nil)
	if len(got) != 3 {
		t.Errorf("got %d ids, want 3", len(got))
	}
}

func BenchmarkRangeQuery16D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := 16
	coords := make([]float64, 50000*d)
	for i := range coords {
		coords[i] = rng.Float64() * 1e5
	}
	ds, _ := vec.NewDataset(coords, d)
	px := New(ds)
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = px.RangeQuery(ds.Point(i%ds.Len()), 20000, buf[:0])
	}
}
