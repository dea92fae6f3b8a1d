package rproj

import (
	"context"
	"math/rand"
	"testing"

	"dbsvec/internal/index"
	"dbsvec/internal/index/indextest"
	"dbsvec/internal/vec"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, "rproj", index.Bind(New, 0))
}

func TestConformanceF32(t *testing.T) {
	indextest.RunF32(t, "rproj", index.Bind(New, 0))
}

func TestConformanceParallelBuild(t *testing.T) {
	indextest.Run(t, "rproj-parallel", index.Bind(New, 4))
}

func TestBuildDeterminism(t *testing.T) {
	indextest.RunBuildDeterminism(t, "rproj", func(workers int) index.CtxBuilder { return index.Bind(New, workers) })
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

// TestConformanceMoreProjections runs the shared suite on a non-default
// partition (six projections, up to 512 cells, another seed, two workers);
// TestConformance covers the default one.
func TestConformanceMoreProjections(t *testing.T) {
	p := params{Projections: 6, TargetCells: 512, Seed: 42}
	indextest.Run(t, "rproj-k6", func(ctx context.Context, ds *vec.Dataset) (index.Index, error) {
		x, err := newParams(ctx, ds, p, 2)
		if err != nil {
			return nil, err
		}
		return x, nil
	})
}

// TestParamsValidation: out-of-range parameters fail validate, and a build
// with them returns the error instead of an index.
func TestParamsValidation(t *testing.T) {
	ds := randDS(10, 2, 4)
	for i, p := range []params{
		{Projections: -1},
		{Projections: 17},
		{Projections: 99},
		{TargetCells: -5},
	} {
		if err := p.validate(); err == nil {
			t.Errorf("case %d: want error for %+v", i, p)
		}
		if x, err := newParams(context.Background(), ds, p, 1); err == nil || x != nil {
			t.Errorf("case %d: newParams(%+v) = %v, %v; want an error", i, p, x, err)
		}
	}
	if err := (params{}).validate(); err != nil {
		t.Errorf("zero params must validate: %v", err)
	}
}

// TestSeedInvariantResults pins the exactness claim directly: the seed
// changes the partition, never what a query returns.
func TestSeedInvariantResults(t *testing.T) {
	ds := randDS(800, 8, 1)
	a, err := newParams(context.Background(), ds, params{Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newParams(context.Background(), ds, params{Seed: 99}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB []int32
	for i := 0; i < ds.Len(); i += 37 {
		bufA = a.RangeQuery(ds.Point(i), 20, bufA[:0])
		bufB = b.RangeQuery(ds.Point(i), 20, bufB[:0])
		if len(bufA) != len(bufB) {
			t.Fatalf("query %d: %d vs %d results across seeds", i, len(bufA), len(bufB))
		}
		for k := range bufA {
			if bufA[k] != bufB[k] {
				t.Fatalf("query %d: results diverge at %d", i, k)
			}
		}
	}
}

func TestCellsStats(t *testing.T) {
	ds := randDS(2000, 6, 2)
	x, err := New(context.Background(), ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells, maxSize := x.Cells()
	if cells < 2 || cells > ds.Len() {
		t.Fatalf("cells = %d out of range", cells)
	}
	if maxSize < 1 || maxSize > ds.Len() {
		t.Fatalf("maxSize = %d out of range", maxSize)
	}
	total := 0
	for c := 0; c < cells; c++ {
		total += int(x.offsets[c+1] - x.offsets[c])
	}
	if total != ds.Len() {
		t.Fatalf("cells hold %d points, want %d", total, ds.Len())
	}
}

func randDS(n, d int, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		rows[i] = row
	}
	ds, _ := vec.FromRows(rows)
	return ds
}
