package core

import (
	"testing"

	"dbsvec/internal/cluster"
	"dbsvec/internal/data"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/eval"
	"dbsvec/internal/index"
	"dbsvec/internal/index/kdtree"
)

// TestTenDistributions reproduces the paper's Section III-C robustness
// claim: across ten qualitatively different data distributions, DBSVEC's
// result stays very close to DBSCAN's (the split conditions of Section
// III-C are rarely met), and the noise guarantee holds exactly on each.
func TestTenDistributions(t *testing.T) {
	const n = 800
	for _, dist := range data.Distributions() {
		dist := dist
		t.Run(dist.Name, func(t *testing.T) {
			ds := dist.Gen(n, 1)
			p := dbscan.Params{Eps: dist.Eps, MinPts: dist.MinPts}
			truth, _, err := dbscan.Run(ds, p, index.Bind(kdtree.New, 1))
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := Run(ds, Options{Eps: dist.Eps, MinPts: dist.MinPts, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := eval.PairRecall(truth, got)
			if err != nil {
				t.Fatal(err)
			}
			if rec < 0.95 {
				t.Errorf("recall %.4f below 0.95 (truth %d clusters, dbsvec %d)", rec, truth.Clusters, got.Clusters)
			}
			// Theorem 3 must hold exactly regardless of distribution.
			for i := range got.Labels {
				if (got.Labels[i] == cluster.Noise) != (truth.Labels[i] == cluster.Noise) {
					t.Fatalf("noise mismatch at point %d", i)
				}
			}
			t.Logf("recall=%.4f clusters=%d/%d rq=%d", rec, got.Clusters, truth.Clusters, st.RangeQueries)
		})
	}
}
