package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"dbsvec/internal/engine"
	"dbsvec/internal/index"
	"dbsvec/internal/vec"
)

func detBlobs(n, d int, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{make([]float64, d), make([]float64, d), make([]float64, d)}
	for c := range centers {
		for j := range centers[c] {
			centers[c][j] = float64(c*40) + rng.Float64()*5
		}
	}
	coords := make([]float64, 0, n*d)
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		for j := 0; j < d; j++ {
			coords = append(coords, c[j]+rng.NormFloat64()*2)
		}
	}
	// A few far-out noise points.
	for i := 0; i < n/50+1; i++ {
		for j := 0; j < d; j++ {
			coords = append(coords, 200+rng.Float64()*100)
		}
	}
	ds, _ := vec.NewDataset(coords, d)
	return ds
}

// TestWorkersDeterminism is the engine's central guarantee: the same
// dataset and seed produce identical Labels, Clusters and θ-term Stats for
// every worker count, because each round's query batch is merged in
// query-index order.
func TestWorkersDeterminism(t *testing.T) {
	datasets := []*vec.Dataset{
		detBlobs(900, 2, 7),
		detBlobs(600, 8, 11),
	}
	for di, ds := range datasets {
		base, baseStats, err := Run(ds, Options{Eps: 6, MinPts: 8, Seed: 3, Workers: 1})
		if err != nil {
			t.Fatalf("dataset %d workers=1: %v", di, err)
		}
		for _, workers := range []int{2, 8} {
			res, st, err := Run(ds, Options{Eps: 6, MinPts: 8, Seed: 3, Workers: workers})
			if err != nil {
				t.Fatalf("dataset %d workers=%d: %v", di, workers, err)
			}
			if !reflect.DeepEqual(res.Labels, base.Labels) {
				t.Errorf("dataset %d: Labels differ between workers=1 and workers=%d", di, workers)
			}
			if res.Clusters != base.Clusters {
				t.Errorf("dataset %d: Clusters = %d (workers=%d), want %d", di, res.Clusters, workers, base.Clusters)
			}
			// Compare the deterministic counters; wall-clock phases and
			// SVDD stage times vary.
			a, b := baseStats, st
			a.Phases, b.Phases = engine.PhaseTimes{}, engine.PhaseTimes{}
			a.SVDD, b.SVDD = engine.SVDDTimes{}, engine.SVDDTimes{}
			a.IndexBuild, b.IndexBuild = 0, 0
			if a != b {
				t.Errorf("dataset %d: θ-term stats differ between workers=1 (%+v) and workers=%d (%+v)", di, a, workers, b)
			}
		}
	}
}

// cancellingBuilder wraps the linear index so the context is cancelled
// after a fixed number of range queries — landing mid-expansion, well past
// the first seed's query.
type cancellingIndex struct {
	index.Index
	cancel context.CancelFunc
	after  int64
	seen   atomic.Int64
}

func (c *cancellingIndex) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	if c.seen.Add(1) == c.after {
		c.cancel()
	}
	return c.Index.RangeQuery(q, eps, buf)
}

// TestCancellationMidExpansion verifies that ClusterContext-style
// cancellation is honored *inside* support-vector expansion rounds: the
// cancel fires during an expansion batch (after the seed query but long
// before the sweep completes) and Run must return the context's error.
func TestCancellationMidExpansion(t *testing.T) {
	ds := detBlobs(2000, 2, 13)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ci *cancellingIndex
	build := func(d *vec.Dataset) index.Index {
		ci = &cancellingIndex{Index: index.NewLinear(d), cancel: cancel, after: 4}
		return ci
	}
	_, _, err := Run(ds, Options{Eps: 6, MinPts: 8, Seed: 1, Context: ctx, IndexBuilderCtx: index.WithContext(build), Workers: 4})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The run must have stopped promptly: the first seed triggers an
	// expansion with many rounds of queries; cancellation after query 4
	// must prevent the sweep from anywhere near finishing.
	if seen := ci.seen.Load(); seen >= int64(ds.Len())/2 {
		t.Errorf("run issued %d queries after cancellation at query 4", seen)
	}
}

// noiseRingDataset builds a dense disk whose sparse outer ring leaves a
// handful of still-Noise points with absorbed-but-untested neighbors: a
// run over it performs RangeCounts only during noise verification (no
// cluster merges), so cancelling on the first RangeCount is guaranteed to
// land inside that phase.
func noiseRingDataset() *vec.Dataset {
	rng := rand.New(rand.NewSource(5))
	var coords []float64
	// Dense disk of radius 8 at (50,50): one cluster, no merges.
	for i := 0; i < 600; i++ {
		r := 8 * math.Sqrt(rng.Float64())
		a := rng.Float64() * 2 * math.Pi
		coords = append(coords, 50+r*math.Cos(a), 50+r*math.Sin(a))
	}
	// Sparse shell at radius 9.8: too sparse to seed, within eps of the
	// disk's edge, so some members end up Noise with absorbed neighbors
	// whose core status was never tested — noise verification work.
	for k := 0; k < 20; k++ {
		a := float64(k) / 20 * 2 * math.Pi
		coords = append(coords, 50+9.8*math.Cos(a), 50+9.8*math.Sin(a))
	}
	for k := 0; k < 6; k++ {
		a := float64(k)/6*2*math.Pi + 0.1
		coords = append(coords, 50+9.8*math.Cos(a), 50+9.8*math.Sin(a))
	}
	ds, _ := vec.NewDataset(coords, 2)
	return ds
}

// TestCancellationMidNoiseVerification cancels during the batched noise
// core tests: with the ring dataset no merges occur, so the first
// RangeCount — where the index fires the cancel — happens inside noise
// verification and Run must surface the context error from that phase.
func TestCancellationMidNoiseVerification(t *testing.T) {
	if vec.DefaultPrecision() == vec.F32 {
		// The dataset sits on a geometric knife edge (a shell exactly eps from
		// the disk) so that no merges occur; the global f32 quantization moves
		// shell points enough to trigger a merge and void the phase isolation
		// this test depends on. Phase behavior itself is precision-independent.
		t.Skip("noise-verification isolation requires exact f64 geometry")
	}
	ds := noiseRingDataset()
	opts := Options{Eps: 2, MinPts: 8, Seed: 1}
	// Guard against the dataset drifting vacuous: a clean run must do
	// noise-verification counting and no merge-path counting.
	_, st, err := Run(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.RangeCounts == 0 || st.Merges != 0 {
		t.Fatalf("dataset no longer isolates noise verification: RangeCounts=%d Merges=%d", st.RangeCounts, st.Merges)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	build := func(d *vec.Dataset) index.Index {
		return &countCancellingIndex{Index: index.NewLinear(d), cancel: cancel}
	}
	opts.Context, opts.IndexBuilderCtx, opts.Workers = ctx, index.WithContext(build), 4
	_, _, err = Run(ds, opts)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

type countCancellingIndex struct {
	index.Index
	cancel context.CancelFunc
}

func (c *countCancellingIndex) RangeCount(q []float64, eps float64, limit int) int {
	c.cancel()
	return c.Index.RangeCount(q, eps, limit)
}
