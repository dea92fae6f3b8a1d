package kdtree

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dbsvec/internal/dist"
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
// indextest.RunBuildDeterminism: parallel builds produce the very same id
// permutation, packed matrix and splits as the serial build, not merely the
// same query answers.
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
			if !slices.Equal(nodesOf(t, par, ds), nodesOf(t, serial, ds)) {
				t.Fatalf("n=%d workers=%d: node layout differs", n, workers)
			}
			if !slices.Equal(par.packed.Coords, serial.packed.Coords) || !slices.Equal(par.packed.Coords32, serial.packed.Coords32) {
				t.Fatalf("n=%d workers=%d: packed matrix differs", n, workers)
			}
		}
	}
}

// node is one node of the tree the recursive traversal walks, stored in
// preorder: a node's left child follows it, and its right child follows
// the left subtree. Internal nodes split on splitDim at splitVal; a leaf
// (left == -1) owns the packed rows [start, end).
type node struct {
	splitDim   int32
	splitVal   float64
	start, end int32
	left       int32
	right      int32
}

// nodesOf rebuilds the nodes of t over ds from its permutation alone, as
// the build split it: a range of more than LeafSize rows splits at its
// middle on its widest dimension, at the least coordinate of its upper
// half, which is the value its selection put at the middle. It fails tb
// unless every split holds: no lower-half point lies above the split
// value.
func nodesOf(tb testing.TB, t *Tree, ds *dbssrc.Dataset) []node {
	tb.Helper()
	b := &buildState{ds: ds, ids: t.ids}
	sc := newBuildScratch(ds.Dim())
	var nodes []node
	var rec func(start, end int) int32
	rec = func(start, end int) int32 {
		self := int32(len(nodes))
		nodes = append(nodes, node{start: int32(start), end: int32(end), left: -1, right: -1})
		if end-start <= LeafSize {
			return self
		}
		dim, mid := b.widestDim(start, end, sc), (start+end)/2
		key := func(k int32) float64 { return ds.Point(int(k))[dim] }
		split := key(slices.MinFunc(t.ids[mid:end], func(a, b int32) int { return cmp.Compare(key(a), key(b)) }))
		if low := key(slices.MaxFunc(t.ids[start:mid], func(a, b int32) int { return cmp.Compare(key(a), key(b)) })); low > split {
			tb.Fatalf("rows [%d, %d): the lower half reaches %v on axis %d, above the split %v", start, end, low, dim, split)
		}
		left := rec(start, mid)
		right := rec(mid, end)
		nodes[self] = node{splitDim: int32(dim), splitVal: split, left: left, right: right}
		return self
	}
	if ds.Len() > 0 {
		rec(0, ds.Len())
	}
	return nodes
}

// traversal is the recursive walk the tree answered its queries with before
// they ran as the zone scan over its packed rows: it descends into every
// child whose side of the split lies within eps of q on the split axis and
// scans each leaf it reaches as one block of packed rows, so it finds the
// hits leaf by leaf in packed order.
type traversal struct {
	t     *Tree
	nodes []node
}

func (r traversal) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	if len(r.nodes) == 0 {
		return buf
	}
	eps2 := eps * eps
	var rec func(ni int32)
	rec = func(ni int32) {
		nd := &r.nodes[ni]
		if nd.left < 0 {
			mark := len(buf)
			buf = dist.FilterWithinRange(r.t.packed, q, eps2, int(nd.start), int(nd.end), buf)
			for i := mark; i < len(buf); i++ {
				buf[i] = r.t.ids[buf[i]]
			}
			return
		}
		diff := q[nd.splitDim] - nd.splitVal
		if diff <= eps {
			rec(nd.left)
		}
		if diff >= -eps {
			rec(nd.right)
		}
	}
	rec(0)
	return buf
}

func (r traversal) RangeCount(q []float64, eps float64, limit int) int {
	if len(r.nodes) == 0 {
		return 0
	}
	eps2 := eps * eps
	count := 0
	var rec func(ni int32) bool // returns true when limit reached
	rec = func(ni int32) bool {
		nd := &r.nodes[ni]
		if nd.left < 0 {
			rem := 0
			if limit > 0 {
				rem = limit - count
			}
			count += dist.CountWithinRange(r.t.packed, q, eps2, int(nd.start), int(nd.end), rem)
			return limit > 0 && count >= limit
		}
		diff := q[nd.splitDim] - nd.splitVal
		if diff <= eps && rec(nd.left) {
			return true
		}
		if diff >= -eps && rec(nd.right) {
			return true
		}
		return false
	}
	rec(0)
	return count
}

// checkTraversal fails tb unless t over ds answers every query within eps
// exactly as the traversal does: RangeQuery the same id sequence (appended
// to the caller's buffer), RangeCount the same count at limits 0, 1, a
// middle value and past n, and the batches on 1, 2 and 3 workers the same
// as the single calls.
func checkTraversal(tb testing.TB, t *Tree, ds *dbssrc.Dataset, queries [][]float64, eps float64) {
	tb.Helper()
	ref := traversal{t, nodesOf(tb, t, ds)}
	n := ds.Len()
	limits := []int{0, 1, n/2 + 1, n + 1}
	for i, q := range queries {
		want := ref.RangeQuery(q, eps, nil)
		if got := t.RangeQuery(q, eps, []int32{-1}); got[0] != -1 || !slices.Equal(got[1:], want) {
			tb.Fatalf("n=%d eps=%g query %d: RangeQuery %v, traversal %v", n, eps, i, got[1:], want)
		}
		for _, limit := range limits {
			if got, w := t.RangeCount(q, eps, limit), ref.RangeCount(q, eps, limit); got != w {
				tb.Fatalf("n=%d eps=%g query %d: RangeCount limit %d = %d, traversal %d", n, eps, i, limit, got, w)
			}
		}
	}
	qs := index.Queries{N: len(queries), At: func(i int) []float64 { return queries[i] }}
	ctx := context.Background()
	batch := index.Batch(t)
	for _, workers := range []int{1, 2, 3} {
		hoods, err := batch.BatchRangeQuery(ctx, qs, eps, workers, nil)
		if err != nil {
			tb.Fatal(err)
		}
		for i, q := range queries {
			if want := t.RangeQuery(q, eps, nil); !slices.Equal(hoods[i], want) {
				tb.Fatalf("n=%d eps=%g workers=%d: batch query %d %v, single %v", n, eps, workers, i, hoods[i], want)
			}
		}
		for _, limit := range limits {
			counts, err := batch.BatchRangeCount(ctx, qs, eps, limit, workers, nil)
			if err != nil {
				tb.Fatal(err)
			}
			for i, q := range queries {
				if want := t.RangeCount(q, eps, limit); counts[i] != want {
					tb.Fatalf("n=%d eps=%g workers=%d: batch count %d limit %d = %d, single %d", n, eps, workers, i, limit, counts[i], want)
				}
			}
		}
	}
}

// gridDataset returns n points in d dimensions with integer coordinates in
// [0, side): a small side repeats points.
func gridDataset(tb testing.TB, n, d, side int, seed int64) *dbssrc.Dataset {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, n*d)
	for i := range coords {
		coords[i] = float64(rng.Intn(side))
	}
	ds, err := dbssrc.NewDataset(coords, d)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// gridQueries returns query points over a grid dataset of the given side:
// points of ds, points between grid points, and points outside the data.
func gridQueries(ds *dbssrc.Dataset, side int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var qs [][]float64
	for k := 0; k < 4 && ds.Len() > 0; k++ {
		qs = append(qs, ds.Point(rng.Intn(ds.Len())))
	}
	between, outside := make([]float64, ds.Dim()), make([]float64, ds.Dim())
	for j := range between {
		between[j] = float64(rng.Intn(side)) + 0.5
		outside[j] = -3 * float64(side)
	}
	return append(qs, between, outside)
}

// The zone scan over the packed rows answers every query with the id
// sequence and counts of the recursive traversal it replaced, and its
// batches answer as its single calls: in both precisions, at n from 0
// through a leaf and its next row, around a zone (64 rows), a word
// (64 zones) and 64Ki rows, and past three words; on points spread thin
// and, up to three words, on points repeated many times over; at ε = 0,
// one grid step, a third of the grid and +Inf; from points of the data,
// between them and outside it.
func TestZoneScanMatchesTraversal(t *testing.T) {
	for _, n := range []int{0, 1, LeafSize, LeafSize + 1, 63, 65, 4095, 4097, 3*4096 + 77, 65535, 65537} {
		sides := []int{4, 1000}
		if n > 3*4096+77 {
			sides = sides[1:]
		}
		for _, side := range sides {
			base := gridDataset(t, n, 3, side, int64(n+side))
			for _, prec := range []dbssrc.Precision{dbssrc.F64, dbssrc.F32} {
				ds, err := base.ToPrecision(prec)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("n=%d/side=%d/%v", n, side, prec), func(t *testing.T) {
					tr := mustNew(t, ds, 2)
					queries := gridQueries(ds, side, int64(n))
					for _, eps := range []float64{0, 1, float64(side) / 3, math.Inf(1)} {
						checkTraversal(t, tr, ds, queries, eps)
					}
				})
			}
		}
	}
}

// Where a squared gap underflows, the unpruned kernels match a point the
// traversal's unsquared split test pruned: at ε = 0, points 1e-170 apart
// are 0 apart squared. The zone scan reads the zone and matches them all,
// as indextest's oracle does.
func TestZoneScanMatchesKernelsWhereGapsUnderflow(t *testing.T) {
	coords := make([]float64, 2*LeafSize)
	for i := LeafSize; i < len(coords); i++ {
		coords[i] = 1e-170
	}
	ds, err := dbssrc.NewDataset(coords, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := mustNew(t, ds, 1)
	q := []float64{0}
	if got := len(traversal{tr, nodesOf(t, tr, ds)}.RangeQuery(q, 0, nil)); got != LeafSize {
		t.Fatalf("the traversal finds %d points, want the %d of the left leaf", got, LeafSize)
	}
	if got, want := tr.RangeQuery(q, 0, nil), indextest.Oracle(ds).RangeQuery(q, 0, nil); len(got) != len(want) {
		t.Fatalf("the zone scan finds %v, the unpruned kernels %v", got, want)
	}
}

// FuzzKDTreeMatchesTraversal checks the tree against the recursive
// traversal and against the unpruned kernels over its packed rows, on
// random points of a grid with fuzzer-chosen size, side (few sides repeat
// points) and step, at any ε, limit and worker count (1–3), in either
// precision. ε is taken as |ε|: clustering rejects a negative ε before an
// index sees it. The grid's steps keep every squared gap a normal float,
// where the traversal's unsquared split test agrees with the kernels'
// squared one (see TestZoneScanMatchesKernelsWhereGapsUnderflow).
func FuzzKDTreeMatchesTraversal(f *testing.F) {
	f.Add(int64(1), uint16(700), uint8(2), uint16(50), int8(0), 3.0, uint16(5), uint8(1), false)
	f.Add(int64(2), uint16(5000), uint8(3), uint16(4), int8(-3), 0.0, uint16(0), uint8(2), true)
	f.Add(int64(3), uint16(17), uint8(8), uint16(1000), int8(7), math.Inf(1), uint16(9), uint8(3), false)
	f.Add(int64(4), uint16(4097), uint8(1), uint16(9000), int8(-20), 1e-300, uint16(1), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, d uint8, side uint16, step int8, eps float64, limit uint16, workers uint8, f32 bool) {
		dim, sides := 1+int(d)%9, 1+int(side)%10000
		scale := math.Ldexp(1, int(step)%21)
		grid := gridDataset(t, int(n)%8000, dim, sides, seed)
		queries := gridQueries(grid, sides, seed)
		for i, q := range queries {
			queries[i] = slices.Clone(q)
			for j := range q {
				queries[i][j] *= scale
			}
		}
		coords := slices.Clone(grid.Matrix().Coords)
		for i := range coords {
			coords[i] *= scale
		}
		ds, err := dbssrc.NewDataset(coords, dim)
		if err != nil {
			t.Fatal(err)
		}
		if f32 {
			if ds, err = ds.ToPrecision(dbssrc.F32); err != nil {
				t.Fatal(err)
			}
		}
		w := 1 + int(workers)%3
		tr := mustNew(t, ds, w)
		ref := traversal{tr, nodesOf(t, tr, ds)}
		eps = math.Abs(eps)
		lim := int(limit) % (ds.Len() + 2)
		qs := index.Queries{N: len(queries), At: func(i int) []float64 { return queries[i] }}
		batch := index.Batch(tr)
		hoods, err := batch.BatchRangeQuery(context.Background(), qs, eps, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := batch.BatchRangeCount(context.Background(), qs, eps, lim, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want := ref.RangeQuery(q, eps, nil)
			packed := dist.FilterWithin(tr.packed, q, eps*eps, nil)
			for k, p := range packed {
				packed[k] = tr.ids[p]
			}
			if !slices.Equal(packed, want) {
				t.Fatalf("query %d: the unpruned packed scan %v, traversal %v", i, packed, want)
			}
			if got := tr.RangeQuery(q, eps, nil); !slices.Equal(got, want) {
				t.Fatalf("query %d: RangeQuery %v, traversal %v", i, got, want)
			}
			if !slices.Equal(hoods[i], want) {
				t.Fatalf("query %d: batch %v, traversal %v", i, hoods[i], want)
			}
			wantN := ref.RangeCount(q, eps, lim)
			if got := tr.RangeCount(q, eps, lim); got != wantN {
				t.Fatalf("query %d: RangeCount limit %d = %d, traversal %d", i, lim, got, wantN)
			}
			if counts[i] != wantN {
				t.Fatalf("query %d: batch count limit %d = %d, traversal %d", i, lim, counts[i], wantN)
			}
		}
	})
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

// BenchmarkRangeQuery100k times range queries, the zone scan over the
// packed leaf-order rows.
func BenchmarkRangeQuery100k(b *testing.B) {
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
