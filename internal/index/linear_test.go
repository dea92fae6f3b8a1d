package index

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dbsvec/internal/engine"
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

// The split scan answers exactly what the whole scan answers: the same
// ascending ids and the same limit-clamped counts, for single queries and
// for batches of every size the block-major schedule treats alike (one
// query, one chunk, chunks on several blocks, more chunks than blocks), at
// cardinalities around the block-count thresholds, in both storage
// precisions; and a count whose limit is reached in an early tile of a
// later block, or only by two blocks together, stops with the whole
// scan's value. The whole scan is the unpruned kernels' answer.
func TestSplitScanMatchesWholeScan(t *testing.T) {
	t.Run("limit-in-later-block", checkLimitInLaterBlock)
	t.Run("limit-across-blocks", checkLimitAcrossBlocks)
	const m = minBlockRows
	for _, d := range []int{2, 3, 8, 13} {
		// eps reaches a sizeable share of the unit-100 cube, so every hood
		// spans every block and counts pass block edges before any limit.
		eps := map[int]float64{2: 20, 3: 30, 8: 80, 13: 110}[d]
		sizes := []int{m - 1, 2*m - 1, 2 * m, 2*m + 1, 3 * m}
		if d == 8 {
			sizes = append(sizes, 8*m+5) // more blocks than workers
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
	// Limits: exhaustive, stopping early (in the first block or a later
	// one), and never reached.
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
		wantBlocks := max(1, ds.Len()/minBlockRows)
		if workers == 1 {
			wantBlocks = 1
		}
		if lin.blocks != wantBlocks {
			t.Fatalf("workers=%d: %d blocks, want %d", workers, lin.blocks, wantBlocks)
		}
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
		for _, size := range []int{2 * workers, 0, 1, 2*workers - 1, 2 * workers, queryChunk + 1, 2 * queryChunk, len(points)} {
			qs := Queries{N: size, At: func(i int) []float64 { return points[i] }}
			hoods, err = lin.BatchRangeQuery(context.Background(), qs, eps, workers, hoods)
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
				counts, err = lin.BatchRangeCount(context.Background(), qs, eps, lim, workers, counts)
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

// checkLimitInLaterBlock counts around a tight cluster that sits in an
// early tile of the second of three row blocks, far from every other row:
// block 0 counts nothing, block 1 reaches each limit in that tile and
// skips its later tiles, and the batch's clamped sums are the whole scan's
// counts.
func checkLimitInLaterBlock(t *testing.T) {
	// The cluster starts three rows into block 1's second 256-row float64
	// tile (the first 512-row float32 one).
	lin, ds, first := clusterAt(t, minBlockRows+256+3)
	lo, _ := block(ds.Len(), lin.blocks, 1, wordRows)
	if tile := (first - lo) / lin.tile; lin.blocks != 3 || tile > 1 || (first+clusterRows-1-lo)/lin.tile != tile {
		t.Fatalf("%d blocks, block 1 at row %d, %d-row tiles: the cluster is not inside one early tile of block 1", lin.blocks, lo, lin.tile)
	}
	checkClusterCounts(t, lin, ds, first)
}

// checkLimitAcrossBlocks counts around a cluster whose first half ends
// block 0 and whose second half starts block 1: neither block alone
// reaches a limit past half the cluster, the two together do, and the
// shared running total gives the whole scan's count.
func checkLimitAcrossBlocks(t *testing.T) {
	lin, ds, first := clusterAt(t, minBlockRows-clusterRows/2)
	if _, hi := block(ds.Len(), lin.blocks, 0, wordRows); lin.blocks != 3 || hi != first+clusterRows/2 {
		t.Fatalf("%d blocks, block 0 ends at row %d: the cluster does not straddle blocks 0 and 1", lin.blocks, hi)
	}
	checkClusterCounts(t, lin, ds, first)
}

// clusterRows is the size of clusterAt's cluster.
const clusterRows = 40

// clusterAt returns a 2-worker Linear over three blocks of minBlockRows
// uniform rows in the unit-100 cube (d=8), except that rows [first,
// first+clusterRows) form a tight cluster. The uniform rows make every
// zone reachable, so a single query of the cluster splits. At this n a
// single query's equal blocks and a batch's word-aligned ones coincide.
func clusterAt(t *testing.T, first int) (*Linear, *vec.Dataset, int) {
	const n, d = 3 * minBlockRows, 8
	rng := rand.New(rand.NewSource(5))
	coords := make([]float64, n*d)
	for i := range coords {
		coords[i] = rng.Float64() * 100
	}
	for i := first + 1; i < first+clusterRows; i++ {
		for j := 0; j < d; j++ {
			coords[i*d+j] = coords[first*d+j] + 0.005*float64(i-first)
		}
	}
	ds, err := vec.NewDataset(coords, d)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := NewLinear(context.Background(), ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	return lin, ds, first
}

// checkClusterCounts checks clusterAt's counts around the cluster, single
// and batched, against the whole scan at limits below, inside, at and past
// the cluster's size.
func checkClusterCounts(t *testing.T, lin *Linear, ds *vec.Dataset, first int) {
	t.Helper()
	center := ds.Point(first)
	const eps = 1.0 // the cluster spans 0.2·√8 ≈ 0.55; random rows lie ~100 apart
	whole := unpruned{ds}
	if got := whole.RangeCount(center, eps, 0); got != clusterRows {
		t.Fatalf("the cluster counts %d rows, want %d", got, clusterRows)
	}
	if rows := lin.ReachRows(center, eps); !lin.splits(rows) {
		t.Fatalf("a query of the cluster reads %d rows and does not split", rows)
	}
	qs := Queries{N: 3, At: func(i int) []float64 { return ds.Point(first + i) }}
	var counts []int
	var err error
	for _, limit := range []int{0, 1, 7, clusterRows/2 + 1, clusterRows, clusterRows + 1} {
		counts, err = lin.BatchRangeCount(context.Background(), qs, eps, limit, 2, counts)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if want := whole.RangeCount(qs.At(i), eps, limit); c != want {
				t.Fatalf("limit %d query %d: count %d, whole scan %d", limit, i, c, want)
			}
		}
		if got, want := lin.RangeCount(center, eps, limit), whole.RangeCount(center, eps, limit); got != want {
			t.Fatalf("limit %d: split RangeCount %d, whole scan %d", limit, got, want)
		}
	}
}

// A steady-state split batch allocates only engine.For's per-call
// bookkeeping: the block results live in the reused out arena.
func TestSplitBatchSteadyStateAllocs(t *testing.T) {
	ds := randomDataset(t, 2*minBlockRows, 8, 3)
	lin, _ := NewLinear(context.Background(), ds, 2)
	qs := PointQueries(ds, []int32{1, 2, 3})
	ctx := context.Background()
	if nb := blocksFor(ds.Len(), qs.N, 2); nb != 2 {
		t.Fatalf("a %d-query batch on 2 workers splits into %d blocks, want 2", qs.N, nb)
	}
	hoods, _ := lin.BatchRangeQuery(ctx, qs, 60, 2, nil)
	counts, _ := lin.BatchRangeCount(ctx, qs, 60, 0, 2, nil)
	loop := testing.AllocsPerRun(50, func() {
		_ = engine.For(ctx, 2, qs.N*2, 1, func(lo, hi int) {})
	})
	// One more for the scan closure engine.For runs.
	limit := loop + 1
	if got := testing.AllocsPerRun(50, func() { hoods, _ = lin.BatchRangeQuery(ctx, qs, 60, 2, hoods) }); got > limit {
		t.Errorf("BatchRangeQuery: %v allocs per steady-state batch, want <= %v", got, limit)
	}
	if got := testing.AllocsPerRun(50, func() { counts, _ = lin.BatchRangeCount(ctx, qs, 60, 0, 2, counts) }); got > limit {
		t.Errorf("BatchRangeCount: %v allocs per steady-state batch, want <= %v", got, limit)
	}
}

// BenchmarkLinearSplit times single queries (batch=1 through RangeQuery)
// and small batches on the linear scan at perfbench's cluster-default
// shape (n=40k, d=8), whole (workers=1) and split across workers.
func BenchmarkLinearSplit(b *testing.B) {
	ds := randomDataset(b, 40_000, 8, 1)
	for _, workers := range []int{1, 2} {
		lin, _ := NewLinear(context.Background(), ds, workers)
		b.Run(fmt.Sprintf("workers=%d/single", workers), func(b *testing.B) {
			var buf []int32
			for i := 0; i < b.N; i++ {
				buf = lin.RangeQuery(ds.Point(i%ds.Len()), 60, buf[:0])
			}
		})
		b.Run(fmt.Sprintf("workers=%d/batch=6", workers), func(b *testing.B) {
			var out [][]int32
			for i := 0; i < b.N; i++ {
				qs := Queries{N: 6, At: func(k int) []float64 { return ds.Point((6*i + k) % ds.Len()) }}
				out, _ = lin.BatchRangeQuery(context.Background(), qs, 60, workers, out)
			}
		})
	}
}
