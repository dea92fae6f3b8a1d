package vptree

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dbsvec/internal/index"
	"dbsvec/internal/index/indextest"
	"dbsvec/internal/vec"
)

// mustNew builds a tree with the given worker count or fails tb.
func mustNew(tb testing.TB, ds *vec.Dataset, workers int) *Tree {
	tb.Helper()
	tr, err := New(context.Background(), ds, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestConformance(t *testing.T) {
	indextest.Run(t, "vptree", index.Bind(New, 0))
}

func TestConformanceF32(t *testing.T) {
	indextest.RunF32(t, "vptree", index.Bind(New, 0))
}

func TestConformanceParallelBuild(t *testing.T) {
	indextest.Run(t, "vptree-parallel", index.Bind(New, 4))
}

func TestBuildDeterminism(t *testing.T) {
	indextest.RunBuildDeterminism(t, "vptree", func(workers int) index.CtxBuilder { return index.Bind(New, workers) })
}

func TestBuildCancelledUpFront(t *testing.T) {
	indextest.BuildCancelledUpFront(t, index.Bind(New, 4))
}

func TestBuildCancelledMidBuild(t *testing.T) {
	indextest.BuildCancelledMidBuild(t, index.Bind(New, 4))
}

// TestCtxBuilderMatchesPlainBuild: the context-builder form of New builds
// the same index for any worker count.
func TestCtxBuilderMatchesPlainBuild(t *testing.T) {
	indextest.BuildersAgree(t, index.Bind(New, 4), index.Bind(New, 1))
}

// TestParallelStructureIdentical: parallel builds must reproduce the serial
// build's node array, id permutation and packed matrix exactly (vantage
// selection hashes the preorder slot, so it cannot depend on scheduling).
func TestParallelStructureIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, 6000)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	ds, _ := vec.FromRows(rows)
	serial := mustNew(t, ds, 1)
	for _, workers := range []int{2, 6, 16} {
		par := mustNew(t, ds, workers)
		if !slices.Equal(par.ids, serial.ids) {
			t.Fatalf("workers=%d: id permutation differs", workers)
		}
		if !slices.Equal(par.nodes, serial.nodes) {
			t.Fatalf("workers=%d: node layout differs", workers)
		}
		if !slices.Equal(par.packed.Coords, serial.packed.Coords) {
			t.Fatalf("workers=%d: packed matrix differs", workers)
		}
	}
}

// TestPackedMatchesGather: streaming the packed leaf blocks is bitwise
// equivalent to the gather-by-id leaf scan (see the kdtree sibling test).
func TestPackedMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := 6
	rows := make([][]float64, 2500)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.Float64() * 100
		}
	}
	ds, _ := vec.FromRows(rows)
	packed := mustNew(t, ds, 1)
	gather := &Tree{ds: packed.ds, ids: packed.ids, nodes: packed.nodes}
	for iter := 0; iter < 60; iter++ {
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.Float64() * 100
		}
		eps := 10 + rng.Float64()*40
		if got, want := packed.RangeQuery(q, eps, nil), gather.RangeQuery(q, eps, nil); !slices.Equal(got, want) {
			t.Fatalf("eps=%g: packed %v != gather %v", eps, got, want)
		}
		if g, w := packed.RangeCount(q, eps, 5), gather.RangeCount(q, eps, 5); g != w {
			t.Fatalf("packed limited count %d != gather %d", g, w)
		}
	}
}

func TestHighDimensional(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := 32
	rows := make([][]float64, 500)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.Float64() * 1000
		}
	}
	ds, _ := vec.FromRows(rows)
	tr := mustNew(t, ds, 1)
	oracle := indextest.Linear(ds)
	for iter := 0; iter < 30; iter++ {
		q := rows[rng.Intn(len(rows))]
		eps := 500 + rng.Float64()*2000
		if got, want := tr.RangeCount(q, eps, 0), oracle.RangeCount(q, eps, 0); got != want {
			t.Fatalf("d=32 count %d != %d", got, want)
		}
	}
}

func TestDepthBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, 4096)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	ds, _ := vec.FromRows(rows)
	tr := mustNew(t, ds, 1)
	// Median splits give ~log2(4096/16) + 1 = 9 levels; allow slack for
	// duplicate-distance ties.
	if d := tr.Depth(); d > 20 {
		t.Errorf("depth %d suggests unbalanced splits", d)
	}
}

func TestDuplicateHeavy(t *testing.T) {
	rows := make([][]float64, 300)
	for i := range rows {
		rows[i] = []float64{float64(i % 3), 0}
	}
	ds, _ := vec.FromRows(rows)
	tr := mustNew(t, ds, 1)
	got := tr.RangeQuery([]float64{0, 0}, 0.5, nil)
	if len(got) != 100 {
		t.Errorf("got %d duplicates, want 100", len(got))
	}
}
