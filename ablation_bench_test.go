// Ablation benchmarks for the design choices DESIGN.md calls out: the
// range-query backend behind DBSVEC, the SVDD target-set cap, and the
// incremental-learning threshold.
package dbsvec

import (
	"fmt"
	"testing"

	"dbsvec/internal/core"
	"dbsvec/internal/svdd"
	"dbsvec/internal/vec"
)

// BenchmarkAblationIndexBackend compares DBSVEC's range-query backends.
// The paper runs DBSVEC index-free (linear); an index trades build time for
// query time.
func BenchmarkAblationIndexBackend(b *testing.B) {
	ds := spreader(20000, 8)
	for _, kind := range []IndexKind{IndexLinear, IndexKDTree, IndexRTree} {
		build, err := kind.Builder(1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Run(ds, core.Options{Eps: 5000, MinPts: 100, Seed: 1, IndexBuilderCtx: build}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSVDDTargetCap sweeps the SVDD target-set cap: larger
// caps mean more kernel work per training but potentially fewer rounds.
func BenchmarkAblationSVDDTargetCap(b *testing.B) {
	ds := spreader(20000, 8)
	for _, cap := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Run(ds, core.Options{Eps: 5000, MinPts: 100, Seed: 1, MaxSVDDTarget: cap}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLearnThreshold sweeps the incremental-learning threshold
// T (Section IV-B1; the paper recommends 2–4, default 3).
func BenchmarkAblationLearnThreshold(b *testing.B) {
	ds := spreader(20000, 8)
	for _, T := range []int{1, 3, 6, -1} {
		name := fmt.Sprintf("T=%d", T)
		if T == -1 {
			name = "T=inf"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Run(ds, core.Options{Eps: 5000, MinPts: 100, Seed: 1, LearnThreshold: T}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSVDDTrain isolates one SVDD training across target sizes
// (the O(ñ) claim of Section IV-D).
func BenchmarkAblationSVDDTrain(b *testing.B) {
	ds := spreader(20000, 8)
	for _, n := range []int{128, 512, 2048} {
		ids := vec.Iota(n)
		times := make([]int, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m, err := svdd.Train(ds, ids, svdd.Config{Nu: svdd.NuStar(8, 100, n), Times: times}); err != nil && m == nil {
					b.Fatal(err)
				}
			}
		})
	}
}
