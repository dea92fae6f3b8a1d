package grid

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dbsvec/internal/dist"
	"dbsvec/internal/vec"
)

// mustNew builds a grid with the given width or fails t.
func mustNew(t *testing.T, ds *vec.Dataset, width float64) *Grid {
	t.Helper()
	g, err := New(ds, width)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomDataset draws n points uniformly from [0, span)^d.
func randomDataset(t *testing.T, n, d int, span float64, seed int64) *vec.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.Float64() * span
		}
	}
	ds, err := vec.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestCellBucketing(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0.5, 0.5}, {0.6, 0.4}, {5.5, 5.5}})
	g := mustNew(t, ds, 1.0)
	if len(g.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(g.Cells))
	}
	if c := g.CellOf[0]; !slices.Equal(g.Cells[c], []int32{0, 1}) {
		t.Errorf("cell of point 0 holds %v, want [0 1]", g.Cells[c])
	}
}

func TestCellsIteration(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0, 0}, {10, 10}, {20, 20}})
	g := mustNew(t, ds, 1.0)
	total := 0
	for _, pts := range g.Cells {
		total += len(pts)
	}
	if total != 3 {
		t.Errorf("cells hold %d points, want 3", total)
	}
}

func TestNegativeCoordinates(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{-5.5, -3.3}, {-5.4, -3.2}, {4, 4}})
	g := mustNew(t, ds, 1.0)
	if g.CellOf[0] != g.CellOf[1] || g.CellOf[0] == g.CellOf[2] {
		t.Errorf("CellOf = %v, want the first two points alone in one cell", g.CellOf)
	}
	if got, lo := g.Rects[g.CellOf[0]], ds.Point(0); !slices.Equal(got.Lo, lo) {
		t.Errorf("cell rectangle %v, want it anchored at the dataset minimum", got)
	}
}

func TestNonPositiveWidthPanics(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0, 0}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for width 0")
		}
	}()
	mustNew(t, ds, 0)
}

// TestCellLayout: cells partition the ids, each cell's ids ascend, CellOf
// inverts the partition, every member lies in its cell's rectangle, and
// the cells are in ascending order of their integer coordinates' byte keys.
func TestCellLayout(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		ds := randomDataset(t, 2000, d, 100, int64(d))
		width := 7.5 / math.Sqrt(float64(d))
		g := mustNew(t, ds, width)
		seen := make([]bool, ds.Len())
		for c, pts := range g.Cells {
			if len(pts) == 0 || !slices.IsSorted(pts) {
				t.Fatalf("d=%d: cell %d ids %v empty or not ascending", d, c, pts)
			}
			r := g.Rects[c]
			for _, id := range pts {
				if seen[id] || g.CellOf[id] != int32(c) {
					t.Fatalf("d=%d: point %d in cell %d, CellOf says %d", d, id, c, g.CellOf[id])
				}
				seen[id] = true
				if r.MinDist2(ds.Point(int(id))) != 0 {
					t.Fatalf("d=%d: point %d outside its cell's rectangle %v", d, id, r)
				}
			}
			for j := range r.Lo {
				if got := r.Hi[j] - r.Lo[j]; math.Abs(got-width) > 1e-9*width {
					t.Fatalf("d=%d: cell %d side %g, want %g", d, c, got, width)
				}
			}
		}
		if slices.Contains(seen, false) {
			t.Fatalf("d=%d: some point is in no cell", d)
		}
		origin, _ := ds.Bounds()
		for c := 1; c < len(g.Cells); c++ {
			if key(g, c-1, origin, width) >= key(g, c, origin, width) {
				t.Fatalf("d=%d: cells %d and %d out of byte-key order", d, c-1, c)
			}
		}
	}
}

// key re-derives cell c's byte key, its little-endian int32 coordinates,
// from its rectangle and the grid's origin.
func key(g *Grid, c int, origin []float64, width float64) string {
	var b []byte
	for j, lo := range g.Rects[c].Lo {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(math.Round((lo-origin[j])/width))))
	}
	return string(b)
}

// TestNearMatchesBruteForce: Near returns exactly the cells whose center
// lies within reach of the query cell's center, checked against a full
// scan of the centers, in low and high dimensions.
func TestNearMatchesBruteForce(t *testing.T) {
	for _, d := range []int{2, 3, 8, 20} {
		ds := randomDataset(t, 600, d, 10, int64(40+d))
		eps := 2.0
		g := mustNew(t, ds, eps/math.Sqrt(float64(d)))
		for _, reach := range []float64{0, eps, 2 * eps, 3.5 * eps} {
			var got []int32
			for c := range g.Cells {
				got = g.Near(int32(c), reach, got[:0])
				want := dist.FilterWithin(g.centers.Matrix(), g.centers.Point(c), reach*reach, nil)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("d=%d reach=%g cell %d: Near = %v, want %v", d, reach, c, got, want)
				}
			}
		}
	}
}
