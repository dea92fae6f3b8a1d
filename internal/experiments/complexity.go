package experiments

import (
	"maps"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/vec"
)

// Table2 validates the complexity claims of Table II and Section III-D
// empirically: it runs DBSVEC over growing cardinalities and emits every
// term of θ = s + 1 + k + m + MinPts·l with θ itself; θ/n must stay far
// below 1 and shrink as n grows for the O(θn) analysis to hold. Next to θ
// each row holds the range queries and counting queries the run really
// issued, whose sum over n is the work θ/n models, and the SVDD trainings
// and SMO iterations. The growth exponent of the wall time between
// consecutive sizes (≈1 for the claimed near-linear behaviour, vs ≈2 for
// DBSCAN) follows from the rows' elapsed_ns.
func Table2(cfg Config, emit func(Row)) error {
	sizes := []int{25000, 50000, 100000, 200000}
	if cfg.Quick {
		sizes = []int{5000, 10000, 20000, 40000}
	}
	var st core.Stats
	run := func(cfg Config, ds *vec.Dataset, eps float64, minPts int) (*cluster.Result, error) {
		res, s, err := runCore(ds, cfg.dbsvecOptions(eps, minPts))
		st = s
		return res, err
	}
	for _, n := range sizes {
		ds := cfg.dataset(data.SeedSpreader{N: n, D: 8, Seed: cfg.Seed}.Generate())
		row, _, err := measure(cfg, "table2", map[string]any{"dataset": "spreader", "algo": "DBSVEC"}, run, ds, effEps, effMinPts)
		if err != nil {
			return err
		}
		maps.Copy(row.Counts, map[string]float64{
			"seeds": float64(st.Seeds), "support_vectors": float64(st.SupportVectors),
			"merges": float64(st.Merges), "noise_list": float64(st.NoiseList),
			"theta": st.Theta(effMinPts), "range_queries": float64(st.RangeQueries),
			"range_counts": float64(st.RangeCounts), "svdd_trainings": float64(st.SVDDTrainings),
			"svdd_iterations": float64(st.SVDDIterations),
		})
		emit(row)
	}
	return nil
}
