package index

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dbsvec/internal/vec"
)

// splitQueries returns a few on-point and off-point query points over ds.
func splitQueries(ds *vec.Dataset, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float64, 0, 40)
	for len(qs) < 20 {
		qs = append(qs, ds.Point(rng.Intn(ds.Len())))
	}
	for len(qs) < 40 {
		q := make([]float64, ds.Dim())
		for j := range q {
			q[j] = rng.Float64() * 100
		}
		qs = append(qs, q)
	}
	return qs
}

// A query's scan splits into runs of reachable zones, yet answers exactly
// what the whole scan answers: the same ascending ids and the same
// limit-clamped counts, for single queries and for index.Batch batches of
// every size (empty, one query, about as many as the workers, past them),
// at cardinalities around the edges of a reach word's wordRows rows, in
// both storage precisions. The whole scan is the unpruned kernels' answer.
func TestSplitScanMatchesWholeScan(t *testing.T) {
	const m = wordRows
	for _, d := range []int{2, 3, 8, 13} {
		// eps reaches a sizeable share of the unit-100 cube, so every hood
		// spans many zones and counts pass zone edges before any limit.
		eps := map[int]float64{2: 20, 3: 30, 8: 80, 13: 110}[d]
		sizes := []int{m - 1, 2*m - 1, 2 * m, 2*m + 1, 3 * m}
		if d == 8 {
			sizes = append(sizes, 8*m+5)
		}
		for _, n := range sizes {
			base := randomDataset(t, n, d, int64(n*d))
			for _, prec := range []vec.Precision{vec.F64, vec.F32} {
				ds, err := base.ToPrecision(prec)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("d=%d/n=%d/%v", d, n, prec), func(t *testing.T) {
					checkSplitScan(t, ds, eps)
				})
			}
		}
	}
}

func checkSplitScan(t *testing.T, ds *vec.Dataset, eps float64) {
	whole := unpruned{ds}
	points := splitQueries(ds, int64(ds.Len()))
	want := make([][]int32, len(points))
	// Limits: exhaustive, stopping early, and never reached.
	limits := make([][]int, len(points))
	wantN := make([][]int, len(points))
	for i, q := range points {
		want[i] = whole.RangeQuery(q, eps, nil)
		full := len(want[i])
		limits[i] = []int{0, 1, full/2 + 1, full + 1}
		for _, lim := range limits[i] {
			wantN[i] = append(wantN[i], whole.RangeCount(q, eps, lim))
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		lin, err := NewLinear(context.Background(), ds, workers)
		if err != nil {
			t.Fatal(err)
		}
		batch := Batch(lin)
		for i, q := range points {
			if got := lin.RangeQuery(q, eps, []int32{-1}); !slices.Equal(got[1:], want[i]) || got[0] != -1 {
				t.Fatalf("workers=%d RangeQuery %d: got %d ids, want %d (ascending, appended to buf)", workers, i, len(got)-1, len(want[i]))
			}
			for j, lim := range limits[i] {
				if got := lin.RangeCount(q, eps, lim); got != wantN[i][j] {
					t.Fatalf("workers=%d RangeCount %d limit %d = %d, want %d", workers, i, lim, got, wantN[i][j])
				}
			}
		}
		var hoods [][]int32
		var counts []int
		for _, size := range []int{2 * workers, 0, 1, 2*workers - 1, 2 * workers, 9, 16, len(points)} {
			qs := Queries{N: size, At: func(i int) []float64 { return points[i] }}
			hoods, err = batch.BatchRangeQuery(context.Background(), qs, eps, workers, hoods)
			if err != nil || len(hoods) != size {
				t.Fatalf("workers=%d batch of %d: %d hoods, err %v", workers, size, len(hoods), err)
			}
			for i := range hoods {
				if !slices.Equal(hoods[i], want[i]) {
					t.Fatalf("workers=%d batch of %d query %d: got %d ids, want %d", workers, size, i, len(hoods[i]), len(want[i]))
				}
			}
			// Exhaustive, 1, and the early stop of query 0.
			for _, lim := range limits[0][:3] {
				counts, err = batch.BatchRangeCount(context.Background(), qs, eps, lim, workers, counts)
				if err != nil || len(counts) != size {
					t.Fatalf("workers=%d count batch of %d: %d counts, err %v", workers, size, len(counts), err)
				}
				for i, c := range counts {
					w := wantN[i][0]
					if lim > 0 {
						w = min(w, lim)
					}
					if c != w {
						t.Fatalf("workers=%d count batch of %d query %d limit %d = %d, want %d", workers, size, i, lim, c, w)
					}
				}
			}
		}
	}
}

// BenchmarkLinearBatch times single queries (RangeQuery, which runs on the
// caller at any worker count) and 6-query index.Batch batches on the
// linear scan at perfbench's cluster-default shape (n=40k, d=8), the
// batches on one worker and on two.
func BenchmarkLinearBatch(b *testing.B) {
	ds := randomDataset(b, 40_000, 8, 1)
	lin, _ := NewLinear(context.Background(), ds, 1)
	b.Run("single", func(b *testing.B) {
		var buf []int32
		for i := 0; i < b.N; i++ {
			buf = lin.RangeQuery(ds.Point(i%ds.Len()), 60, buf[:0])
		}
	})
	batch := Batch(lin)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d/batch=6", workers), func(b *testing.B) {
			var out [][]int32
			for i := 0; i < b.N; i++ {
				qs := Queries{N: 6, At: func(k int) []float64 { return ds.Point((6*i + k) % ds.Len()) }}
				out, _ = batch.BatchRangeQuery(context.Background(), qs, 60, workers, out)
			}
		})
	}
}
