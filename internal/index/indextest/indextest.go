// Package indextest provides a reusable conformance suite that validates any
// index.Index implementation against an oracle of the unpruned fused
// kernels (dist.FilterWithin and dist.CountWithin over every row) on
// randomized workloads. Each backend package runs its constructor through
// Run, RunF32, RunBuildDeterminism, BuildCancelledUpFront,
// BuildCancelledMidBuild and BuildersAgree; the backend table's conformance
// test runs every table row through Run.
package indextest

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"dbsvec/internal/dist"
	"dbsvec/internal/index"
	"dbsvec/internal/leakcheck"
	"dbsvec/internal/vec"
)

// Run exercises the builder on a battery of datasets and query mixes and
// fails the test on any divergence from the oracle.
func Run(t *testing.T, name string, build index.CtxBuilder) {
	t.Helper()
	t.Run(name+"/uniform2d", func(t *testing.T) { compare(t, build, uniform(400, 2, 1), 25, 2) })
	t.Run(name+"/uniform5d", func(t *testing.T) { compare(t, build, uniform(400, 5, 2), 35, 3) })
	t.Run(name+"/clustered3d", func(t *testing.T) { compare(t, build, clustered(500, 3, 3), 12, 4) })
	t.Run(name+"/duplicates", func(t *testing.T) { compare(t, build, duplicates(200, 2, 5), 10, 6) })
	t.Run(name+"/line1d", func(t *testing.T) { compare(t, build, uniform(300, 1, 7), 8, 8) })
	t.Run(name+"/tiny", func(t *testing.T) { compare(t, build, uniform(3, 2, 9), 50, 10) })
	t.Run(name+"/single", func(t *testing.T) { compare(t, build, uniform(1, 4, 11), 50, 12) })
	t.Run(name+"/empty", func(t *testing.T) {
		ds, _ := vec.FromRows(nil)
		idx := mustBuild(t, build, ds)
		if idx.Len() != 0 {
			t.Errorf("Len = %d on empty dataset", idx.Len())
		}
	})
	t.Run(name+"/batch", func(t *testing.T) { batchCompare(t, build, clustered(500, 3, 15), 12) })
	t.Run(name+"/batch-uniform", func(t *testing.T) { batchCompare(t, build, uniform(300, 5, 16), 35) })
	t.Run(name+"/batch-cancel", func(t *testing.T) { batchCancel(t, build, uniform(200, 2, 17), 25) })
	t.Run(name+"/zeroeps", func(t *testing.T) {
		ds := duplicates(100, 2, 13)
		idx := mustBuild(t, build, ds)
		oracle := Oracle(ds)
		for i := 0; i < ds.Len(); i += 7 {
			got := sorted(idx.RangeQuery(ds.Point(i), 0, nil))
			want := sorted(oracle.RangeQuery(ds.Point(i), 0, nil))
			if !equal(got, want) {
				t.Fatalf("eps=0 query %d: got %v want %v", i, got, want)
			}
		}
	})
}

// RunF32 is the float32-storage conformance suite: the same battery as Run
// but with every dataset converted to F32 storage, plus the cross-precision
// determinism property. The oracle comparison inside compare already runs on
// the converted dataset (the oracle streams the f32 mirror too); the extra
// widened-master check pins that an index built over F32 storage answers
// bit-identically to one built over the F64 view of the same quantized
// coordinates — i.e. that the f32 leaf scans are a pure bandwidth swap.
func RunF32(t *testing.T, name string, build index.CtxBuilder) {
	t.Helper()
	corpus := []struct {
		label string
		ds    *vec.Dataset
		eps   float64
		seed  int64
	}{
		{"uniform2d", uniform(400, 2, 31), 25, 2},
		{"uniform5d", uniform(400, 5, 32), 35, 3},
		{"clustered3d", clustered(500, 3, 33), 12, 4},
		{"duplicates", duplicates(200, 2, 34), 10, 6},
	}
	for _, tc := range corpus {
		tc := tc
		ds32, err := tc.ds.ToPrecision(vec.F32)
		if err != nil {
			t.Fatalf("%s: F32 conversion: %v", tc.label, err)
		}
		t.Run(name+"/f32/"+tc.label, func(t *testing.T) {
			compare(t, build, ds32, tc.eps, tc.seed)
		})
		t.Run(name+"/f32-vs-widened/"+tc.label, func(t *testing.T) {
			master, err := ds32.ToPrecision(vec.F64)
			if err != nil {
				t.Fatal(err)
			}
			idx32 := mustBuild(t, build, ds32)
			idx64 := mustBuild(t, build, master)
			rng := rand.New(rand.NewSource(tc.seed + 100))
			lo, hi := ds32.Bounds()
			for iter := 0; iter < 40; iter++ {
				var q []float64
				if iter%2 == 0 {
					q = ds32.Point(rng.Intn(ds32.Len()))
				} else {
					q = make([]float64, ds32.Dim())
					for j := range q {
						span := hi[j] - lo[j]
						q[j] = lo[j] - 0.2*span + rng.Float64()*1.4*span
					}
				}
				e := tc.eps * (0.2 + rng.Float64()*1.6)
				got := idx32.RangeQuery(q, e, nil)
				want := idx64.RangeQuery(q, e, nil)
				if !equal(got, want) {
					t.Fatalf("RangeQuery(q=%v eps=%g): f32 index %v, widened-master index %v", q, e, got, want)
				}
				if g, w := idx32.RangeCount(q, e, 0), idx64.RangeCount(q, e, 0); g != w {
					t.Fatalf("RangeCount: f32 %d, widened-master %d", g, w)
				}
			}
		})
	}
}

// Linear returns the default backend, a one-worker linear scan, over ds.
func Linear(ds *vec.Dataset) *index.Linear {
	lin, _ := index.NewLinear(context.Background(), ds, 1) // fails only on a cancelled ctx
	return lin
}

// Oracle returns the ground truth over ds: the fused kernels run over
// every row, with no zone map, tree or split in front of them, so the
// linear scan is checked against it too. Its ids come out ascending.
func Oracle(ds *vec.Dataset) index.Index { return oracle{ds} }

type oracle struct{ ds *vec.Dataset }

func (o oracle) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	return dist.FilterWithin(o.ds.Matrix(), q, eps*eps, buf)
}

func (o oracle) RangeCount(q []float64, eps float64, limit int) int {
	return dist.CountWithin(o.ds.Matrix(), q, eps*eps, limit)
}

func (o oracle) Len() int { return o.ds.Len() }

func mustBuild(t *testing.T, build index.CtxBuilder, ds *vec.Dataset) index.Index {
	t.Helper()
	idx, err := build(context.Background(), ds)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return idx
}

func compare(t *testing.T, build index.CtxBuilder, ds *vec.Dataset, eps float64, seed int64) {
	t.Helper()
	idx := mustBuild(t, build, ds)
	oracle := Oracle(ds)
	if idx.Len() != ds.Len() {
		t.Fatalf("Len = %d, want %d", idx.Len(), ds.Len())
	}
	rng := rand.New(rand.NewSource(seed))
	lo, hi := ds.Bounds()
	for iter := 0; iter < 60; iter++ {
		var q []float64
		if iter%2 == 0 && ds.Len() > 0 {
			q = ds.Point(rng.Intn(ds.Len())) // on-point queries
		} else {
			q = make([]float64, ds.Dim())
			for j := range q {
				span := hi[j] - lo[j]
				q[j] = lo[j] - 0.2*span + rng.Float64()*1.4*span // may fall outside
			}
		}
		e := eps * (0.2 + rng.Float64()*1.6)
		got := sorted(idx.RangeQuery(q, e, nil))
		want := sorted(oracle.RangeQuery(q, e, nil))
		if !equal(got, want) {
			t.Fatalf("RangeQuery(q=%v eps=%g): got %d ids %v, want %d ids %v", q, e, len(got), got, len(want), want)
		}
		if c := idx.RangeCount(q, e, 0); c != len(want) {
			t.Fatalf("RangeCount(q=%v eps=%g) = %d, want %d", q, e, c, len(want))
		}
		if len(want) >= 2 {
			if c := idx.RangeCount(q, e, 2); c != 2 {
				t.Fatalf("RangeCount limit=2 = %d, want 2", c)
			}
		}
	}
}

// batchCompare is the BatchIndex conformance property: for every backend,
// BatchRangeQuery/BatchRangeCount over a random query mix must equal the
// per-query RangeQuery/RangeCount results, for several worker counts, in
// both owned and buffer-reuse modes, including off-dataset query points.
func batchCompare(t *testing.T, build index.CtxBuilder, ds *vec.Dataset, eps float64) {
	t.Helper()
	idx := mustBuild(t, build, ds)
	b := index.Batch(idx)
	lo, hi := ds.Bounds()
	d := ds.Dim()

	const m = 120
	// Queries mix on-point views with perturbed points spread over (and a
	// little beyond) the bounding box.
	points := make([][]float64, m)
	for i := range points {
		if i%2 == 0 {
			points[i] = ds.Point((i * 7) % ds.Len())
			continue
		}
		for j := 0; j < d; j++ {
			span := hi[j] - lo[j]
			frac := float64((i*13+j*5)%97) / 96
			points[i] = append(points[i], lo[j]-0.1*span+1.2*span*frac)
		}
	}
	qs := index.Queries{N: m, At: func(i int) []float64 { return points[i] }}
	want := make([][]int32, m)
	wantN := make([]int, m)
	for i, q := range points {
		want[i] = sorted(idx.RangeQuery(q, eps, nil))
		wantN[i] = idx.RangeCount(q, eps, 0)
	}

	var reuse [][]int32
	var reuseN []int
	for _, workers := range []int{1, 3, 8} {
		got, err := b.BatchRangeQuery(context.Background(), qs, eps, workers, nil)
		if err != nil {
			t.Fatalf("BatchRangeQuery(workers=%d): %v", workers, err)
		}
		if len(got) != m {
			t.Fatalf("BatchRangeQuery(workers=%d) returned %d results, want %d", workers, len(got), m)
		}
		for i := range got {
			if !equal(sorted(got[i]), want[i]) {
				t.Fatalf("BatchRangeQuery(workers=%d) query %d: got %v want %v", workers, i, got[i], want[i])
			}
		}
		// Reuse mode: hand the previous batch's buffers back in.
		reuse, err = b.BatchRangeQuery(context.Background(), qs, eps, workers, reuse)
		if err != nil {
			t.Fatalf("BatchRangeQuery(reuse, workers=%d): %v", workers, err)
		}
		for i := range reuse {
			if !equal(sorted(reuse[i]), want[i]) {
				t.Fatalf("BatchRangeQuery(reuse, workers=%d) query %d: got %v want %v", workers, i, reuse[i], want[i])
			}
		}
		reuseN, err = b.BatchRangeCount(context.Background(), qs, eps, 0, workers, reuseN)
		if err != nil {
			t.Fatalf("BatchRangeCount(workers=%d): %v", workers, err)
		}
		for i := range reuseN {
			if reuseN[i] != wantN[i] {
				t.Fatalf("BatchRangeCount(workers=%d) query %d = %d, want %d", workers, i, reuseN[i], wantN[i])
			}
		}
		// Limited counts clamp exactly like RangeCount.
		limN, err := b.BatchRangeCount(context.Background(), qs, eps, 2, workers, nil)
		if err != nil {
			t.Fatalf("BatchRangeCount(limit=2, workers=%d): %v", workers, err)
		}
		for i := range limN {
			wantLim := wantN[i]
			if wantLim > 2 {
				wantLim = 2
			}
			if limN[i] < wantLim {
				t.Fatalf("BatchRangeCount(limit=2, workers=%d) query %d = %d, want >= %d", workers, i, limN[i], wantLim)
			}
		}
	}
}

// batchCancel checks that a cancelled context aborts the batch with the
// context's error.
func batchCancel(t *testing.T, build index.CtxBuilder, ds *vec.Dataset, eps float64) {
	t.Helper()
	b := index.Batch(mustBuild(t, build, ds))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs := index.Queries{N: ds.Len(), At: func(i int) []float64 { return ds.Point(i) }}
	if _, err := b.BatchRangeQuery(ctx, qs, eps, 4, nil); err != context.Canceled {
		t.Fatalf("BatchRangeQuery on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := b.BatchRangeCount(ctx, qs, eps, 0, 4, nil); err != context.Canceled {
		t.Fatalf("BatchRangeCount on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// RunBuildDeterminism is the parallel-build conformance property: an index
// built with workers=1 and one built with workers=N must answer every query
// bit-identically — same ids in the same order from RangeQuery, same
// RangeCount (limited and exhaustive) — on the fuzz corpus. Backends
// guarantee this by fixing the work partition before any goroutine runs, so
// this check pins that no scheduling dependence has crept into construction.
func RunBuildDeterminism(t *testing.T, name string, build func(workers int) index.CtxBuilder) {
	t.Helper()
	corpus := []struct {
		label string
		ds    *vec.Dataset
		eps   float64
	}{
		{"uniform2d", uniform(4000, 2, 21), 4},
		{"uniform5d", uniform(3000, 5, 22), 30},
		{"clustered3d", clustered(5000, 3, 23), 10},
		{"duplicates", duplicates(2000, 2, 24), 8},
		{"tiny", uniform(5, 3, 25), 50},
	}
	for _, tc := range corpus {
		tc := tc
		t.Run(name+"/build-determinism/"+tc.label, func(t *testing.T) {
			serial := mustBuild(t, build(1), tc.ds)
			for i, workers := range []int{2, 3, 8} {
				par := mustBuild(t, build(workers), tc.ds)
				sameAnswers(t, par, serial, tc.ds, tc.eps, 26+int64(i))
			}
		})
	}
}

// BuildersAgree fails t unless the indexes a and b build over a 3000-point
// clustered 4-d dataset answer the same queries identically.
func BuildersAgree(t *testing.T, a, b index.CtxBuilder) {
	t.Helper()
	ds := clustered(3000, 4, 43)
	sameAnswers(t, mustBuild(t, a, ds), mustBuild(t, b, ds), ds, 10, 44)
}

// sameAnswers fails t unless got and want answer 40 random queries over ds
// (half on data points, half anywhere in a 1.4× box around it, radii 0.2–1.8
// eps) identically: same ids in the same order from RangeQuery and the same
// RangeCount (limited and exhaustive).
func sameAnswers(t *testing.T, got, want index.Index, ds *vec.Dataset, eps float64, seed int64) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len %d != %d", got.Len(), want.Len())
	}
	rng := rand.New(rand.NewSource(seed))
	lo, hi := ds.Bounds()
	for iter := 0; iter < 40; iter++ {
		var q []float64
		if iter%2 == 0 {
			q = ds.Point(rng.Intn(ds.Len()))
		} else {
			q = make([]float64, ds.Dim())
			for j := range q {
				span := hi[j] - lo[j]
				q[j] = lo[j] - 0.2*span + rng.Float64()*1.4*span
			}
		}
		e := eps * (0.2 + rng.Float64()*1.6)
		g := got.RangeQuery(q, e, nil)
		w := want.RangeQuery(q, e, nil)
		// Exact slice equality: result *order* must match, not just the id set.
		if !equal(g, w) {
			t.Fatalf("RangeQuery(q=%v eps=%g): got %v want %v", q, e, g, w)
		}
		if gc, wc := got.RangeCount(q, e, 0), want.RangeCount(q, e, 0); gc != wc {
			t.Fatalf("RangeCount = %d, want %d", gc, wc)
		}
		if len(w) >= 3 {
			if gc, wc := got.RangeCount(q, e, 3), want.RangeCount(q, e, 3); gc != wc {
				t.Fatalf("RangeCount(limit=3) = %d, want %d", gc, wc)
			}
		}
	}
}

// BuildCancelledUpFront is the first build-cancellation property: a build
// under an already-cancelled context returns a nil index and
// context.Canceled without leaking a goroutine.
func BuildCancelledUpFront(t *testing.T, build index.CtxBuilder) {
	t.Helper()
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if idx, err := build(ctx, uniform(100, 3, 41)); !errors.Is(err, context.Canceled) || idx != nil {
		t.Fatalf("idx=%v err=%v, want nil index and context.Canceled", idx, err)
	}
}

// BuildCancelledMidBuild is the second build-cancellation property on a
// 10000-point dataset: the build polls its context at least once after the
// entry check, so a long build stays interruptible, and a context that
// turns cancelled at any of those later polls yields a nil index and
// context.Canceled without leaking a goroutine.
func BuildCancelledMidBuild(t *testing.T, build index.CtxBuilder) {
	t.Helper()
	leakcheck.Check(t)
	ds := uniform(10000, 3, 42)
	count := &countingCtx{Context: context.Background(), after: math.MaxInt64}
	if _, err := build(count, ds); err != nil {
		t.Fatal(err)
	}
	polls := count.calls.Load()
	if polls < 2 {
		t.Fatalf("build polled ctx %d time(s); want a poll after the entry check", polls)
	}
	for after := int64(1); after < polls; after++ {
		ctx := &countingCtx{Context: context.Background(), after: after}
		if idx, err := build(ctx, ds); !errors.Is(err, context.Canceled) || idx != nil {
			t.Fatalf("cancelled after %d of %d polls: idx=%v err=%v, want nil index and context.Canceled", after, polls, idx, err)
		}
	}
}

// countingCtx reports cancellation from its (after+1)-th Err call on.
type countingCtx struct {
	context.Context
	after int64
	calls atomic.Int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func (c *countingCtx) Done() <-chan struct{} { return nil }

func uniform(n, d int, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, n*d)
	for i := range coords {
		coords[i] = rng.Float64() * 100
	}
	ds, _ := vec.NewDataset(coords, d)
	return ds
}

func clustered(n, d int, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 5)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = rng.Float64() * 100
		}
	}
	coords := make([]float64, 0, n*d)
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(len(centers))]
		for j := 0; j < d; j++ {
			coords = append(coords, c[j]+rng.NormFloat64()*3)
		}
	}
	ds, _ := vec.NewDataset(coords, d)
	return ds
}

func duplicates(n, d int, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	distinct := n / 4
	pts := make([][]float64, distinct)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = rng.Float64() * 50
		}
	}
	coords := make([]float64, 0, n*d)
	for i := 0; i < n; i++ {
		coords = append(coords, pts[rng.Intn(distinct)]...)
	}
	ds, _ := vec.NewDataset(coords, d)
	return ds
}

func sorted(ids []int32) []int32 {
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
