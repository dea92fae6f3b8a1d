package rtree

import (
	"math/rand"
	"slices"
	"testing"

	"dbsvec/internal/index"
	"dbsvec/internal/index/indextest"
	"dbsvec/internal/vec"
)

func TestConformanceBulk(t *testing.T) {
	indextest.Run(t, "rtree-bulk", Build)
}

func TestConformanceF32(t *testing.T) {
	indextest.RunF32(t, "rtree-bulk", Build)
}

func TestConformanceParallelBulk(t *testing.T) {
	indextest.Run(t, "rtree-parallel", BuildWorkers(4))
}

func TestBuildDeterminism(t *testing.T) {
	indextest.RunBuildDeterminism(t, "rtree", func(ds *vec.Dataset, workers int) index.Index {
		return BulkWorkers(ds, workers)
	})
}

// TestParallelStructureIdentical: STR tiling with the id tie-break is a
// total order, so parallel bulk loads must reproduce the serial tree node
// for node.
func TestParallelStructureIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	rows := make([][]float64, 7000)
	for i := range rows {
		// Heavy coordinate duplication exercises the tie-break.
		rows[i] = []float64{float64(int(rng.Float64() * 40)), float64(int(rng.Float64() * 40)), rng.Float64() * 40}
	}
	ds, _ := vec.FromRows(rows)
	serial := BulkWorkers(ds, 1)
	for _, workers := range []int{2, 5, 16} {
		par := BulkWorkers(ds, workers)
		if !sameTree(serial.root, par.root) {
			t.Fatalf("workers=%d: tree structure differs from serial build", workers)
		}
	}
}

// sameTree compares two subtrees entry for entry (rects, ids, recursion).
func sameTree(a, b *nodeT) bool {
	if a.leaf != b.leaf || len(a.entries) != len(b.entries) {
		return false
	}
	for i := range a.entries {
		ea, eb := &a.entries[i], &b.entries[i]
		if ea.id != eb.id || !slices.Equal(ea.rect.Lo, eb.rect.Lo) || !slices.Equal(ea.rect.Hi, eb.rect.Hi) {
			return false
		}
		if (ea.child == nil) != (eb.child == nil) {
			return false
		}
		if ea.child != nil && !sameTree(ea.child, eb.child) {
			return false
		}
	}
	return true
}

func TestInvariantsAfterBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 31, 32, 33, 1000, 5000} {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
		}
		ds, _ := vec.FromRows(rows)
		if n == 0 {
			ds, _ = vec.NewDataset(nil, 3)
		}
		tr := Bulk(ds)
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Errorf("n=%d: Len=%d", n, tr.Len())
		}
	}
}

func BenchmarkBulkLoad100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	coords := make([]float64, 100000*4)
	for i := range coords {
		coords[i] = rng.Float64() * 1e5
	}
	ds, _ := vec.NewDataset(coords, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bulk(ds)
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	coords := make([]float64, 100000*4)
	for i := range coords {
		coords[i] = rng.Float64() * 1e5
	}
	ds, _ := vec.NewDataset(coords, 4)
	tr := Bulk(ds)
	buf := make([]int32, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.RangeQuery(ds.Point(i%ds.Len()), 5000, buf[:0])
	}
	_ = buf
}
