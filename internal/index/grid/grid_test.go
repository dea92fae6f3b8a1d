package grid

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dbsvec/internal/index"
	"dbsvec/internal/index/indextest"
	"dbsvec/internal/vec"
)

// mustNew builds a grid with the given width and worker count or fails t.
func mustNew(t *testing.T, ds *vec.Dataset, width float64, workers int) *Grid {
	t.Helper()
	g, err := New(context.Background(), ds, width, workers)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// gridBuilder builds grids whose cells are width wide for width > 0, and
// 10/√d wide otherwise.
func gridBuilder(width float64, workers int) index.CtxBuilder {
	return func(ctx context.Context, ds *vec.Dataset) (index.Index, error) {
		w := width
		if w <= 0 {
			w = 10
			if ds.Dim() > 0 {
				w = 10 / math.Sqrt(float64(ds.Dim()))
			}
		}
		g, err := New(ctx, ds, w, workers)
		if err != nil {
			return nil, err
		}
		return g, nil
	}
}

func TestConformance(t *testing.T) {
	indextest.Run(t, "grid", gridBuilder(0, 0))
}

func TestConformanceF32(t *testing.T) {
	indextest.RunF32(t, "grid", gridBuilder(0, 0))
}

func TestConformanceParallelBuild(t *testing.T) {
	indextest.Run(t, "grid-parallel", gridBuilder(0, 4))
}

func TestBuildDeterminism(t *testing.T) {
	indextest.RunBuildDeterminism(t, "grid", func(workers int) index.CtxBuilder { return gridBuilder(7.5, workers) })
}

func TestBuildCancelledUpFront(t *testing.T) {
	indextest.BuildCancelledUpFront(t, gridBuilder(7.5, 4))
}

func TestBuildCancelledMidBuild(t *testing.T) {
	indextest.BuildCancelledMidBuild(t, gridBuilder(7.5, 4))
}

// TestParallelBinningIdentical: the two-pass counting-sort build must
// reproduce the serial build's cell directory exactly — same keys, same
// coordinates, same ascending id runs.
func TestParallelBinningIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 3, 4096} {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.Float64() * 200, rng.Float64() * 200}
		}
		ds, _ := vec.FromRows(rows)
		if n == 0 {
			ds, _ = vec.NewDataset(nil, 2)
		}
		serial := mustNew(t, ds, 3, 1)
		for _, workers := range []int{2, 8} {
			par := mustNew(t, ds, 3, workers)
			if len(par.cells) != len(serial.cells) {
				t.Fatalf("n=%d workers=%d: %d cells != %d", n, workers, len(par.cells), len(serial.cells))
			}
			for k, want := range serial.cells {
				got, ok := par.cells[k]
				if !ok || !slices.Equal(got, want) {
					t.Fatalf("n=%d workers=%d: cell %q ids %v != %v", n, workers, k, got, want)
				}
				if !slices.Equal(par.coords[k], serial.coords[k]) {
					t.Fatalf("n=%d workers=%d: cell %q coords differ", n, workers, k)
				}
			}
			if !slices.Equal(par.origin, serial.origin) {
				t.Fatalf("n=%d workers=%d: origin %v != %v", n, workers, par.origin, serial.origin)
			}
		}
	}
}

func TestCellBucketing(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0.5, 0.5}, {0.6, 0.4}, {5.5, 5.5}})
	g := mustNew(t, ds, 1.0, 1)
	if g.NumCells() != 2 {
		t.Fatalf("NumCells = %d, want 2", g.NumCells())
	}
	k := g.CellOf([]float64{0.5, 0.5})
	if got := g.Points(k); len(got) != 2 {
		t.Errorf("cell should hold 2 points, got %v", got)
	}
}

func TestCellsIteration(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0, 0}, {10, 10}, {20, 20}})
	g := mustNew(t, ds, 1.0, 1)
	total := 0
	g.Cells(func(_ string, pts []int32) { total += len(pts) })
	if total != 3 {
		t.Errorf("iterated %d points, want 3", total)
	}
}

func TestHighDimDirectoryScanPath(t *testing.T) {
	// d large enough that offset enumeration would explode; the directory
	// scan must still answer exactly.
	rng := rand.New(rand.NewSource(8))
	d := 20
	rows := make([][]float64, 300)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.Float64() * 10
		}
	}
	ds, _ := vec.FromRows(rows)
	g := mustNew(t, ds, 0.5, 1)
	oracle := indextest.Linear(ds)
	for iter := 0; iter < 20; iter++ {
		q := rows[rng.Intn(len(rows))]
		eps := 2 + rng.Float64()*8
		if got, want := g.RangeCount(q, eps, 0), oracle.RangeCount(q, eps, 0); got != want {
			t.Fatalf("high-dim count %d != %d", got, want)
		}
	}
}

func TestNonPositiveWidthPanics(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0, 0}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for width 0")
		}
	}()
	mustNew(t, ds, 0, 1)
}

func TestNegativeCoordinates(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{-5.5, -3.3}, {-5.4, -3.2}, {4, 4}})
	g := mustNew(t, ds, 1.0, 1)
	got := g.RangeQuery([]float64{-5.45, -3.25}, 0.2, nil)
	if len(got) != 2 {
		t.Errorf("negative-coordinate query returned %v, want 2 ids", got)
	}
}
