package kdtree

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dbsvec/internal/index"
	"dbsvec/internal/index/indextest"
	dbssrc "dbsvec/internal/vec"
)

// mustNew builds a tree with the given worker count or fails tb.
func mustNew(tb testing.TB, ds *dbssrc.Dataset, workers int) *Tree {
	tb.Helper()
	tr, err := New(context.Background(), ds, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestConformance(t *testing.T) {
	indextest.Run(t, "kdtree", index.Bind(New, 0))
}

func TestConformanceF32(t *testing.T) {
	indextest.RunF32(t, "kdtree", index.Bind(New, 0))
}

func TestConformanceParallelBuild(t *testing.T) {
	indextest.Run(t, "kdtree-parallel", index.Bind(New, 4))
}

func TestBuildDeterminism(t *testing.T) {
	indextest.RunBuildDeterminism(t, "kdtree", func(workers int) index.CtxBuilder { return index.Bind(New, workers) })
}

func TestBuildCancelledUpFront(t *testing.T) {
	indextest.BuildCancelledUpFront(t, index.Bind(New, 4))
}

func TestBuildCancelledMidBuild(t *testing.T) {
	indextest.BuildCancelledMidBuild(t, index.Bind(New, 4))
}

// TestCtxBuilderMatchesPlainBuild: the BuildWorkersCtx shim builds the same
// tree as New.
func TestCtxBuilderMatchesPlainBuild(t *testing.T) {
	indextest.BuildersAgree(t, BuildWorkersCtx(4), index.Bind(New, 1))
}

// TestParallelStructureIdentical pins the stronger internal property behind
// indextest.RunBuildDeterminism: parallel builds produce the very same node array, id
// permutation and packed matrix as the serial build, not merely the same
// query answers.
func TestParallelStructureIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 17, 5000} {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		}
		ds, _ := dbssrc.FromRows(rows)
		serial := mustNew(t, ds, 1)
		for _, workers := range []int{2, 5, 16} {
			par := mustNew(t, ds, workers)
			if !slices.Equal(par.ids, serial.ids) {
				t.Fatalf("n=%d workers=%d: id permutation differs", n, workers)
			}
			if !slices.Equal(par.nodes, serial.nodes) {
				t.Fatalf("n=%d workers=%d: node layout differs", n, workers)
			}
			if !slices.Equal(par.packed.Coords, serial.packed.Coords) || !slices.Equal(par.packed.Coords32, serial.packed.Coords32) {
				t.Fatalf("n=%d workers=%d: packed matrix differs", n, workers)
			}
		}
	}
}

func benchDataset(n, d int) *dbssrc.Dataset {
	rng := rand.New(rand.NewSource(9))
	coords := make([]float64, n*d)
	for i := range coords {
		coords[i] = rng.Float64() * 1000
	}
	ds, _ := dbssrc.NewDataset(coords, d)
	return ds
}

func BenchmarkBuild100k(b *testing.B) {
	ds := benchDataset(100000, 4)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustNew(b, ds, workers)
			}
		})
	}
}

// BenchmarkLeafScan100k times range queries over the packed contiguous leaf
// blocks.
func BenchmarkLeafScan100k(b *testing.B) {
	ds := benchDataset(100000, 4)
	tr := mustNew(b, ds, 1)
	b.Run("packed", func(b *testing.B) {
		buf := make([]int32, 0, 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = tr.RangeQuery(ds.Point(i%ds.Len()), 100, buf[:0])
		}
		_ = buf
	})
}

func TestBuildSortedInput(t *testing.T) {
	// Pre-sorted input exercises the median-of-three path.
	rows := make([][]float64, 2000)
	for i := range rows {
		rows[i] = []float64{float64(i), float64(i % 7)}
	}
	ds, _ := dbssrc.FromRows(rows)
	tr := mustNew(t, ds, 1)
	got := tr.RangeQuery([]float64{1000, 3}, 5, nil)
	if len(got) == 0 {
		t.Error("expected hits near the middle of a sorted run")
	}
}
