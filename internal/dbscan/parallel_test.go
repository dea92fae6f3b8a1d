package dbscan

import (
	"math/rand"
	"testing"

	"dbsvec/internal/cluster"
	"dbsvec/internal/eval"
	"dbsvec/internal/index"
	"dbsvec/internal/index/kdtree"
	"dbsvec/internal/vec"
)

func TestParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ds, _ := twoBlobs(500, seed)
		p := Params{Eps: 3, MinPts: 6}
		seq, _, err := Run(ds, p, index.Bind(kdtree.New, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			par, st, err := RunParallel(ds, p, index.Bind(kdtree.New, 1), workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if par.Clusters != seq.Clusters {
				t.Fatalf("seed %d workers %d: clusters %d != %d", seed, workers, par.Clusters, seq.Clusters)
			}
			rec, err := eval.PairRecall(seq, par)
			if err != nil {
				t.Fatal(err)
			}
			if rec < 0.999 {
				t.Fatalf("seed %d workers %d: recall %v", seed, workers, rec)
			}
			// Noise sets must be identical (noise is unambiguous).
			for i := range par.Labels {
				if (par.Labels[i] == cluster.Noise) != (seq.Labels[i] == cluster.Noise) {
					t.Fatalf("seed %d: noise mismatch at %d", seed, i)
				}
			}
			if st.RangeQueries != int64(ds.Len()) {
				t.Errorf("RangeQueries = %d, want %d", st.RangeQueries, ds.Len())
			}
		}
	}
}

func TestParallelEdgeCases(t *testing.T) {
	empty, _ := vec.FromRows(nil)
	res, _, err := RunParallel(empty, Params{Eps: 1, MinPts: 2}, nil, 4)
	if err != nil || res.Clusters != 0 {
		t.Errorf("empty: %v %v", res, err)
	}
	if _, _, err := RunParallel(nil, Params{Eps: 1, MinPts: 2}, nil, 4); err == nil {
		t.Error("nil dataset should error")
	}
	if _, _, err := RunParallel(empty, Params{Eps: -1, MinPts: 2}, nil, 4); err == nil {
		t.Error("bad params should error")
	}
	one, _ := vec.FromRows([][]float64{{5, 5}})
	res, _, err = RunParallel(one, Params{Eps: 1, MinPts: 1}, nil, 8)
	if err != nil || res.Clusters != 1 {
		t.Errorf("single self-core point: clusters=%d err=%v", res.Clusters, err)
	}
}

func TestParallelDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := make([][]float64, 400)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 50, rng.Float64() * 50}
	}
	ds, _ := vec.FromRows(rows)
	p := Params{Eps: 3, MinPts: 5}
	first, _, err := RunParallel(ds, p, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		again, _, err := RunParallel(ds, p, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first.Labels {
			if first.Labels[i] != again.Labels[i] {
				t.Fatalf("run %d: nondeterministic label at %d", run, i)
			}
		}
	}
}

// TestParallelWorkersDeterminism pins the engine guarantee for parallel
// DBSCAN: because the batch engine merges neighborhoods in query-index
// order and phases 2–3 are sequential, every worker count yields
// bit-identical labels — not merely equivalent clusterings.
func TestParallelWorkersDeterminism(t *testing.T) {
	ds, _ := twoBlobs(800, 3)
	p := Params{Eps: 3, MinPts: 6}
	base, baseStats, err := RunParallel(ds, p, index.Bind(kdtree.New, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		res, st, err := RunParallel(ds, p, index.Bind(kdtree.New, 1), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range base.Labels {
			if res.Labels[i] != base.Labels[i] {
				t.Fatalf("workers=%d: label[%d] = %d, want %d", workers, i, res.Labels[i], base.Labels[i])
			}
		}
		if res.Clusters != base.Clusters {
			t.Fatalf("workers=%d: clusters %d != %d", workers, res.Clusters, base.Clusters)
		}
		if st.RangeQueries != baseStats.RangeQueries {
			t.Errorf("workers=%d: RangeQueries %d != %d", workers, st.RangeQueries, baseStats.RangeQueries)
		}
	}
}

func BenchmarkParallelVsSequential(b *testing.B) {
	ds, _ := twoBlobs(20000, 1)
	p := Params{Eps: 3, MinPts: 10}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Run(ds, p, index.Bind(kdtree.New, 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := RunParallel(ds, p, index.Bind(kdtree.New, 1), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
