package experiments

import (
	"fmt"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/eval"
	"dbsvec/internal/kmeans"
	"dbsvec/internal/vec"
)

// Fig1 reproduces Figure 1: DBSCAN vs DBSVEC on the t4.8k analogue
// (MinPts=20, ε=8.5). Each algorithm's row carries its cluster structure and
// its pair recall against DBSCAN (1 for DBSCAN itself); the speedup is the
// ratio of the two elapsed_ns.
func Fig1(cfg Config, emit func(Row)) error {
	ds := cfg.dataset(data.Chameleon48K(cfg.Seed))
	exactRow, exact, err := measure(cfg, "fig1", map[string]any{"dataset": "t4.8k", "algo": "DBSCAN"}, runRDBSCAN, ds, 8.5, 20)
	if err != nil {
		return err
	}
	exactRow.Counts["recall"] = 1
	emit(exactRow)
	row, approx, err := measure(cfg, "fig1", map[string]any{"dataset": "t4.8k", "algo": "DBSVEC"}, runDBSVEC, ds, 8.5, 20)
	if err != nil {
		return err
	}
	if row.Counts["recall"], err = eval.PairRecall(exact, approx); err != nil {
		return err
	}
	emit(row)
	return nil
}

// recallRows runs each algorithm on one suite dataset and emits its row
// with its pair recall against truth.
func recallRows(cfg Config, exp string, emit func(Row), e data.SuiteEntry, ds *vec.Dataset, truth *cluster.Result, algos []namedAlgo) error {
	for _, a := range algos {
		row, res, err := measure(cfg, exp, map[string]any{"dataset": e.Name, "algo": a.name}, a.run, ds, e.Eps, e.MinPts)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", e.Name, a.name, err)
		}
		if row.Counts["recall"], err = eval.PairRecall(truth, res); err != nil {
			return err
		}
		emit(row)
	}
	return nil
}

// Table3 reproduces Table III: pair recall of DBSVEC_min (ν=1/ñ), DBSVEC
// (ν*), ρ-approximate and DBSCAN-LSH against exact DBSCAN over the open
// dataset stand-ins.
func Table3(cfg Config, emit func(Row)) error {
	algos := []namedAlgo{
		{"DBSVECmin", dbsvecWith(func(o *core.Options) { o.NuMin = true })},
		{"DBSVEC", runDBSVEC},
		{"rho-Appr", runRho},
		{"DBSCAN-LSH", runLSH},
	}
	for _, e := range data.OpenSuite() {
		ds := cfg.dataset(e.Gen(cfg.Seed))
		truth, err := runRDBSCAN(cfg, ds, e.Eps, e.MinPts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if err := recallRows(cfg, "table3", emit, e, ds, truth, algos); err != nil {
			return err
		}
	}
	return nil
}

// Table4 reproduces Table IV: internal validation (silhouette compactness
// "C", Davies–Bouldin separation "S") of DBSVEC vs k-MEANS on the Miss.,
// Breast. and Dim64 stand-ins. k-MEANS gets DBSVEC's cluster count (at
// least 2). Metrics are computed on a sample capped at 3000 points to bound
// the O(n²) silhouette.
func Table4(cfg Config, emit func(Row)) error {
	for _, name := range []string{"Miss.", "Breast.", "Dim64"} {
		e, err := data.SuiteByName(name)
		if err != nil {
			return err
		}
		ds := cfg.dataset(e.Gen(cfg.Seed))
		ids := sampleForMetrics(ds.Len(), 3000, cfg.Seed)
		sub := ds.Subset(ids)
		k := 2 // raised to DBSVEC's cluster count before k-MEANS runs
		kMeans := func(cfg Config, ds *vec.Dataset, _ float64, _ int) (*cluster.Result, error) {
			res, _, _, err := kmeans.Run(ds, kmeans.Params{K: k, Seed: cfg.Seed})
			return res, err
		}
		for _, a := range []namedAlgo{{"DBSVEC", runDBSVEC}, {"k-MEANS", kMeans}} {
			row, res, err := measure(cfg, "table4", map[string]any{"dataset": name, "algo": a.name}, a.run, ds, e.Eps, e.MinPts)
			if err != nil {
				return err
			}
			k = max(k, res.Clusters)
			subRes := subResult(res, ids)
			if row.Counts["silhouette"], err = eval.Silhouette(sub, subRes); err != nil {
				return err
			}
			if row.Counts["davies_bouldin"], err = eval.DaviesBouldin(sub, subRes); err != nil {
				return err
			}
			emit(row)
		}
	}
	return nil
}

// Fig9a reproduces Figure 9a: the recall effect of the adaptive penalty
// weights (\WF removes them) and of incremental learning (\IL removes it)
// across the accuracy suite.
func Fig9a(cfg Config, emit func(Row)) error {
	suite := data.OpenSuite()
	if cfg.Quick {
		suite = suite[:6]
	}
	algos := []namedAlgo{
		{"DBSVEC\\WF", dbsvecWith(func(o *core.Options) { o.DisableWeights = true })},
		{"DBSVEC\\IL", dbsvecWith(func(o *core.Options) { o.LearnThreshold = -1 })},
		{"DBSVEC", runDBSVEC},
	}
	for _, e := range suite {
		ds := cfg.dataset(e.Gen(cfg.Seed))
		truth, err := runRDBSCAN(cfg, ds, e.Eps, e.MinPts)
		if err != nil {
			return err
		}
		if err := recallRows(cfg, "fig9a", emit, e, ds, truth, algos); err != nil {
			return err
		}
	}
	return nil
}
