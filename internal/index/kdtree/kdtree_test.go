package kdtree

import (
	"context"
	"fmt"
	"math"
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
			if !slices.Equal(par.packed.Coords, serial.packed.Coords) {
				t.Fatalf("n=%d workers=%d: packed matrix differs", n, workers)
			}
		}
	}
}

// TestPackedMatchesGather pins the acceptance property of the packed-leaf
// layout: streaming the contiguous leaf blocks must yield bitwise-identical
// results — same ids, same order, same counts — as the historical
// gather-by-id leaf scan.
func TestPackedMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, d := range []int{2, 3, 5, 9} {
		n := 3000
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.Float64() * 100
			}
		}
		ds, _ := dbssrc.FromRows(rows)
		packed := mustNew(t, ds, 1)
		gather := &Tree{ds: packed.ds, ids: packed.ids, nodes: packed.nodes} // packed matrix absent: leaf scans gather by id
		for iter := 0; iter < 60; iter++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.Float64() * 100
			}
			eps := 5 + rng.Float64()*30
			got := packed.RangeQuery(q, eps, nil)
			want := gather.RangeQuery(q, eps, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d eps=%g: packed %v != gather %v", d, eps, got, want)
			}
			if g, w := packed.RangeCount(q, eps, 0), gather.RangeCount(q, eps, 0); g != w {
				t.Fatalf("d=%d: packed count %d != gather %d", d, g, w)
			}
			if g, w := packed.RangeCount(q, eps, 7), gather.RangeCount(q, eps, 7); g != w {
				t.Fatalf("d=%d: packed limited count %d != gather %d", d, g, w)
			}
		}
	}
}

func TestNearest(t *testing.T) {
	ds, _ := dbssrc.FromRows([][]float64{{0, 0}, {10, 10}, {3, 4}})
	tr := mustNew(t, ds, 1)
	id, d2 := tr.Nearest([]float64{2.9, 4.1})
	if id != 2 {
		t.Errorf("Nearest id = %d, want 2", id)
	}
	if math.Abs(d2-(0.1*0.1+0.1*0.1)) > 1e-9 {
		t.Errorf("Nearest d2 = %v", d2)
	}
}

func TestNearestEmpty(t *testing.T) {
	ds, _ := dbssrc.FromRows(nil)
	tr := mustNew(t, ds, 1)
	id, d2 := tr.Nearest([]float64{0})
	if id != -1 || !math.IsInf(d2, 1) {
		t.Errorf("Nearest on empty = %d,%v", id, d2)
	}
}

func TestNearestMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, 500)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
	}
	ds, _ := dbssrc.FromRows(rows)
	tr := mustNew(t, ds, 1)
	for iter := 0; iter < 100; iter++ {
		q := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		_, gotD := tr.Nearest(q)
		bestD := math.Inf(1)
		for i := 0; i < ds.Len(); i++ {
			if d := ds.Dist2To(i, q); d < bestD {
				bestD = d
			}
		}
		if math.Abs(gotD-bestD) > 1e-9 {
			t.Fatalf("Nearest distance %v, brute force %v", gotD, bestD)
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

// BenchmarkLeafScan100k contrasts the packed contiguous leaf blocks against
// the historical gather-by-id leaf scan on the same tree (both paths return
// bitwise-identical results; see TestPackedMatchesGather).
func BenchmarkLeafScan100k(b *testing.B) {
	ds := benchDataset(100000, 4)
	packed := mustNew(b, ds, 1)
	gather := &Tree{ds: packed.ds, ids: packed.ids, nodes: packed.nodes}
	variants := []struct {
		name string
		tr   *Tree
	}{{"packed", packed}, {"gather", gather}}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			buf := make([]int32, 0, 1024)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = v.tr.RangeQuery(ds.Point(i%ds.Len()), 100, buf[:0])
			}
			_ = buf
		})
	}
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
