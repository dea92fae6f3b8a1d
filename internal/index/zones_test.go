package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dbsvec/internal/dist"
	"dbsvec/internal/vec"
)

// walkDataset returns n rows of a random walk in d dimensions with steps
// of up to 1 per axis, in walk order, so each zone covers a small box; every
// fourth step stands still, which repeats a row.
func walkDataset(t testing.TB, n, d int, seed int64) *vec.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, n*d)
	for i := d; i < n*d; i++ {
		coords[i] = coords[i-d]
		if i/d%4 != 0 {
			coords[i] += 2*rng.Float64() - 1
		}
	}
	ds, err := vec.NewDataset(coords, d)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// shuffled returns ds's rows in an order fixed by seed.
func shuffled(t testing.TB, ds *vec.Dataset, seed int64) *vec.Dataset {
	t.Helper()
	coords := make([]float64, 0, ds.Len()*ds.Dim())
	for _, i := range rand.New(rand.NewSource(seed)).Perm(ds.Len()) {
		coords = append(coords, ds.Point(i)...)
	}
	out, err := vec.NewDataset(coords, ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// zoneQueries returns query points over ds: rows spread over it, points
// beside them, points far outside the data on both sides, and a row with
// a NaN coordinate, which matches nothing.
func zoneQueries(ds *vec.Dataset, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	d := ds.Dim()
	var qs [][]float64
	for k := 0; k < 6; k++ {
		qs = append(qs, ds.Point(k*(ds.Len()-1)/5))
	}
	for k := 0; k < 3; k++ {
		q := slices.Clone(ds.Point(rng.Intn(ds.Len())))
		for j := range q {
			q[j] += 3 * rng.NormFloat64()
		}
		qs = append(qs, q)
	}
	far, farNeg, nan := make([]float64, d), make([]float64, d), slices.Clone(ds.Point(0))
	for j := range far {
		far[j], farNeg[j] = 1e6, -1e300
	}
	nan[d/2] = math.NaN()
	return append(qs, far, farNeg, nan)
}

// checkUnpruned fails t unless a Linear over ds on 1, 2 and 3 workers
// answers every query within eps exactly as the unpruned kernels do:
// single queries (ids ascending, appended to the caller's buffer; counts
// at limits below, inside and past the answer) and batches of all of
// them.
func checkUnpruned(t *testing.T, ds *vec.Dataset, queries [][]float64, eps float64) {
	t.Helper()
	whole := unpruned{ds}
	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = whole.RangeQuery(q, eps, nil)
	}
	qs := Queries{N: len(queries), At: func(i int) []float64 { return queries[i] }}
	for _, workers := range []int{1, 2, 3} {
		lin, err := NewLinear(context.Background(), ds, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if got := lin.RangeQuery(q, eps, []int32{-1}); got[0] != -1 || !slices.Equal(got[1:], want[i]) {
				t.Fatalf("workers=%d eps=%g query %d: RangeQuery %v, unpruned %v", workers, eps, i, got[1:], want[i])
			}
			full := len(want[i])
			for _, limit := range []int{0, 1, full/2 + 1, full, full + 1} {
				if got, w := lin.RangeCount(q, eps, limit), whole.RangeCount(q, eps, limit); got != w {
					t.Fatalf("workers=%d eps=%g query %d: RangeCount limit %d = %d, unpruned %d", workers, eps, i, limit, got, w)
				}
			}
		}
		hoods, err := lin.BatchRangeQuery(context.Background(), qs, eps, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range hoods {
			if !slices.Equal(hoods[i], want[i]) {
				t.Fatalf("workers=%d eps=%g batch query %d: %v, unpruned %v", workers, eps, i, hoods[i], want[i])
			}
		}
		for _, limit := range []int{0, 1, 3} {
			counts, err := lin.BatchRangeCount(context.Background(), qs, eps, limit, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range counts {
				if w := whole.RangeCount(queries[i], eps, limit); c != w {
					t.Fatalf("workers=%d eps=%g batch count %d limit %d = %d, unpruned %d", workers, eps, i, limit, c, w)
				}
			}
		}
	}
}

// The zone map changes which rows a query reads, never its answer: on
// random-walk rows in walk order (each zone a small box, most pruned) and
// shuffled (every zone wide), at n below, at and past a zone and past the
// split threshold (not a multiple of 64, and 13-dimensional float64 tiles
// of 156 rows cut zones), d = 2, 3, 8, 13, both precisions, ε from 0
// (repeated rows) to one that reaches every zone (so single queries
// split), and queries on, beside and far outside the data or with a NaN
// coordinate.
func TestZonesMatchUnprunedScan(t *testing.T) {
	for _, d := range []int{2, 3, 8, 13} {
		for _, n := range []int{1, 63, 64, 65, 1000, 2*minBlockRows + 77} {
			walk := walkDataset(t, n, d, int64(n+d))
			for _, order := range []struct {
				name string
				ds   *vec.Dataset
			}{{"ordered", walk}, {"shuffled", shuffled(t, walk, 3)}} {
				for _, prec := range []vec.Precision{vec.F64, vec.F32} {
					ds, err := order.ds.ToPrecision(prec)
					if err != nil {
						t.Fatal(err)
					}
					t.Run(fmt.Sprintf("d=%d/n=%d/%s/%v", d, n, order.name, prec), func(t *testing.T) {
						queries := zoneQueries(ds, int64(n))
						if n > 2*minBlockRows {
							checkReach(t, ds, queries[0], order.name == "shuffled")
						}
						for _, eps := range []float64{0, 1.5, 6, 1e4} {
							checkUnpruned(t, ds, queries, eps)
						}
					})
				}
			}
		}
	}
}

// checkReach fails t unless the cases exercise both sides of the zone map
// at q: on ordered rows ε = 1.5 reads under a quarter of the rows and ε =
// 1e4 reads every row and splits; on shuffled rows every full word is
// wide, so even ε = 0 reads all their rows.
func checkReach(t *testing.T, ds *vec.Dataset, q []float64, shuffled bool) {
	t.Helper()
	lin, _ := NewLinear(context.Background(), ds, 2)
	n := ds.Len()
	if shuffled {
		if rows := lin.ReachRows(q, 0); rows < n/wordRows*wordRows {
			t.Fatalf("shuffled rows: eps 0 reads %d of %d rows, want those of every full word", rows, n)
		}
		return
	}
	if rows := lin.ReachRows(q, 1.5); rows >= n/4 {
		t.Fatalf("ordered rows: eps 1.5 reads %d of %d rows, want under a quarter", rows, n)
	}
	if rows := lin.ReachRows(q, 1e4); rows != n || !lin.splits(rows) {
		t.Fatalf("ordered rows: eps 1e4 reads %d of %d rows (split %v), want all, split", rows, n, lin.splits(rows))
	}
}

// The box test sums its terms in another order than the kernels do, so
// for a row on a box corner the two sums of the same terms can round
// apart. A search over random 8-dimensional pairs finds an ε whose square
// the kernel's distance meets but the box's sequential sum exceeds; the
// zone of that row must still be read.
func TestZoneBoundAllowsRounding(t *testing.T) {
	const d = 8
	rng := rand.New(rand.NewSource(1))
	for try := 0; try < 100000; try++ {
		row, q := make([]float64, d), make([]float64, d)
		seq := 0.0
		for j := range row {
			row[j], q[j] = rng.Float64()*100, rng.Float64()*100
			g := math.Abs(row[j] - q[j])
			seq += g * g
		}
		kernel := dist.SqDist(row, q)
		eps := math.Sqrt(kernel)
		for eps*eps < kernel {
			eps = math.Nextafter(eps, math.Inf(1))
		}
		if eps*eps >= seq {
			continue
		}
		// A zone of copies of row: its box is the row itself.
		coords := make([]float64, 0, zoneRows*d)
		for range zoneRows {
			coords = append(coords, row...)
		}
		ds, err := vec.NewDataset(coords, d)
		if err != nil {
			t.Fatal(err)
		}
		if got := linear(ds).RangeCount(q, eps, 0); got != zoneRows {
			t.Fatalf("try %d: kernel distance %v <= eps² %v < box sum %v, but the scan matched %d of %d rows", try, kernel, eps*eps, seq, got, zoneRows)
		}
		return
	}
	t.Fatal("the search found no pair whose sums round apart")
}

// A row exactly ε from a zone's box, on a face or at a corner, is matched:
// the box test's rounding margin never drops a row the kernel accepts.
// Zone 1 is the box [10, 11]^d with row 64 at its corner and row 65 on its
// face x0 = 10; every other row is inside it or far away.
func TestZoneEdgeRows(t *testing.T) {
	for _, d := range []int{2, 3, 8, 13} {
		const n = 150 // three zones, the last partial
		rng := rand.New(rand.NewSource(int64(d)))
		coords := make([]float64, n*d)
		for i := range n {
			for j := range d {
				switch {
				case i < 64 || i >= 128:
					coords[i*d+j] = 1000 + float64(i)
				case i == 64:
					coords[i*d+j] = 10
				case i == 65:
					coords[i*d+j] = 10.5
					if j == 0 {
						coords[i*d+j] = 10
					}
				default:
					coords[i*d+j] = 10.25 + 0.75*rng.Float64()
				}
			}
		}
		coords[127*d] = 11 // the box reaches 11 on axis 0
		base, err := vec.NewDataset(coords, d)
		if err != nil {
			t.Fatal(err)
		}
		face, corner := slices.Clone(base.Point(65)), slices.Clone(base.Point(64))
		face[0] = 9.5               // 0.5 from the face, 0.25 = 0.5² exactly
		corner[0], corner[1] = 7, 6 // 3²+4² = 5² from the corner
		for _, prec := range []vec.Precision{vec.F64, vec.F32} {
			ds, err := base.ToPrecision(prec)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				q   []float64
				eps float64
				row int32
			}{{face, 0.5, 65}, {corner, 5, 64}} {
				for _, eps := range []float64{c.eps, math.Nextafter(c.eps, 0)} {
					got := linear(ds).RangeQuery(c.q, eps, nil)
					if eps == c.eps && !slices.Contains(got, c.row) {
						t.Fatalf("d=%d %v eps=%g: row %d at exactly eps is missing from %v", d, prec, eps, c.row, got)
					}
					checkUnpruned(t, ds, [][]float64{c.q}, eps)
				}
			}
		}
	}
}

// FuzzLinearZones checks the linear scan against the unpruned kernels on
// small random-walk datasets in walk order or shuffled, in either
// precision, at any ε, limit, worker count (1–3) and batch size.
func FuzzLinearZones(f *testing.F) {
	f.Add(int64(1), uint16(700), uint8(7), 2.5, uint8(0), uint8(1), uint8(5), false, false)
	f.Add(int64(2), uint16(9000), uint8(2), 40.0, uint8(9), uint8(2), uint8(12), true, false)
	f.Add(int64(3), uint16(8300), uint8(12), 0.0, uint8(1), uint8(3), uint8(1), false, true)
	f.Add(int64(4), uint16(65), uint8(3), 1e300, uint8(3), uint8(2), uint8(20), true, true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, d uint8, eps float64, limit, workers, batch uint8, shuffle, f32 bool) {
		ds := walkDataset(t, 1+int(n)%10000, 1+int(d)%13, seed)
		if shuffle {
			ds = shuffled(t, ds, seed)
		}
		if f32 {
			var err error
			if ds, err = ds.ToPrecision(vec.F32); err != nil {
				t.Fatal(err)
			}
		}
		w := 1 + int(workers)%3
		lin, err := NewLinear(context.Background(), ds, w)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		queries := make([][]float64, 1+int(batch)%24)
		for i := range queries {
			q := slices.Clone(ds.Point(rng.Intn(ds.Len())))
			if i%2 == 1 {
				for j := range q {
					q[j] += eps * rng.NormFloat64()
				}
			}
			queries[i] = q
		}
		whole := unpruned{ds}
		lim := int(limit) % 50
		qs := Queries{N: len(queries), At: func(i int) []float64 { return queries[i] }}
		hoods, err := lin.BatchRangeQuery(context.Background(), qs, eps, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := lin.BatchRangeCount(context.Background(), qs, eps, lim, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want := whole.RangeQuery(q, eps, nil)
			if got := lin.RangeQuery(q, eps, nil); !slices.Equal(got, want) {
				t.Fatalf("query %d: RangeQuery %v, unpruned %v", i, got, want)
			}
			if !slices.Equal(hoods[i], want) {
				t.Fatalf("query %d: batch %v, unpruned %v", i, hoods[i], want)
			}
			wantN := whole.RangeCount(q, eps, lim)
			if got := lin.RangeCount(q, eps, lim); got != wantN {
				t.Fatalf("query %d: RangeCount limit %d = %d, unpruned %d", i, lim, got, wantN)
			}
			if counts[i] != wantN {
				t.Fatalf("query %d: batch count limit %d = %d, unpruned %d", i, lim, counts[i], wantN)
			}
		}
	})
}

// TestZoneMapWorkersBitIdentical builds the zone map on 1, 2 and 3
// workers and requires the zone boxes, word boxes and wide flags to be
// bitwise equal: on walk rows in order and shuffled, with a row count
// that leaves a ragged last zone and word, with NaN rows (first in a zone,
// inside one, and a whole zone of them), in float64 and through the
// float32 mirror.
func TestZoneMapWorkersBitIdentical(t *testing.T) {
	const n, d = 3*wordRows + 77, 5
	walk := walkDataset(t, n, d, 41)
	for _, rows := range []struct {
		name string
		ds   *vec.Dataset
	}{{"ordered", walk}, {"shuffled", shuffled(t, walk, 42)}} {
		coords := slices.Clone(rows.ds.Matrix().Coords)
		for _, r := range []int{0, 70, 4096 + 3} {
			coords[r*d+1] = math.NaN()
		}
		for r := 2 * zoneRows; r < 3*zoneRows; r++ {
			for j := range d {
				coords[r*d+j] = math.NaN()
			}
		}
		f64 := dist.Matrix{Coords: coords, Dim: d}
		f32 := dist.Matrix{Coords: make([]float64, len(coords)), Coords32: make([]float32, len(coords)), Dim: d}
		for i, v := range coords {
			f32.Coords32[i] = float32(v)
			f32.Coords[i] = float64(f32.Coords32[i])
		}
		for _, m := range []struct {
			name string
			m    dist.Matrix
		}{{"f64", f64}, {"f32", f32}} {
			zone, word, wide := zoneMap(m.m, n, 1)
			if len(wide) != 4 {
				t.Fatalf("%d words, want 4", len(wide))
			}
			for _, workers := range []int{2, 3} {
				z, w, wd := zoneMap(m.m, n, workers)
				if !slices.Equal(f64Bits(z), f64Bits(zone)) || !slices.Equal(f64Bits(w), f64Bits(word)) || !slices.Equal(wd, wide) {
					t.Fatalf("%s %s: zone map on %d workers differs from the serial build", rows.name, m.name, workers)
				}
			}
		}
	}
}

func f64Bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// BenchmarkNewLinear times the zone-map build at perfbench's
// cluster-default shape (n=40k, d=8) on one and two workers.
func BenchmarkNewLinear(b *testing.B) {
	ds := walkDataset(b, 40_000, 8, 1)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewLinear(context.Background(), ds, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
