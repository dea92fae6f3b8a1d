package experiments

import (
	"fmt"
	"io"

	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/eval"
	"dbsvec/internal/index/backend"
	"dbsvec/internal/kmeans"
)

// Fig1 reproduces Figure 1: DBSCAN vs DBSVEC on the t4.8k analogue
// (MinPts=20, ε=8.5). It reports both cluster structures, the pair recall,
// and the speedup.
func Fig1(w io.Writer, cfg Config) error {
	header(w, "Figure 1: clustering quality on t4.8k (MinPts=20, eps=8.5)")
	ds := cfg.dataset(data.Chameleon48K(cfg.Seed))
	exact, err := timed(runRDBSCAN(ds, 8.5, 20))
	if err != nil {
		return err
	}
	approx, err := timed(runDBSVEC(ds, 8.5, 20, cfg))
	if err != nil {
		return err
	}
	rec, err := eval.PairRecall(exact.res, approx.res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %10s %10s %10s\n", "algorithm", "clusters", "noise", "time")
	fmt.Fprintf(w, "%-12s %10d %10d %10s\n", "DBSCAN", exact.res.Clusters, exact.res.NoiseCount(), fmtDur(exact))
	fmt.Fprintf(w, "%-12s %10d %10d %10s\n", "DBSVEC", approx.res.Clusters, approx.res.NoiseCount(), fmtDur(approx))
	speedup := exact.elapsed.Seconds() / approx.elapsed.Seconds()
	fmt.Fprintf(w, "pair recall = %.3f, speedup = %.1fx (paper: identical clusters, 7.7x)\n", rec, speedup)
	return nil
}

// Table3 reproduces Table III: pair recall of DBSVEC (ν*), DBSVEC_min
// (ν=1/ñ), ρ-approximate and DBSCAN-LSH against exact DBSCAN over the open
// dataset stand-ins.
func Table3(w io.Writer, cfg Config) error {
	header(w, "Table III: clustering accuracy (pair recall vs exact DBSCAN)")
	suite := data.OpenSuite()
	fmt.Fprintf(w, "%-10s %8s %8s | %10s %10s %10s %10s\n",
		"dataset", "n", "d", "DBSVECmin", "DBSVEC", "rho-Appr", "LSH")
	for _, e := range suite {
		ds := cfg.dataset(e.Gen(cfg.Seed))
		truth, err := timed(runRDBSCAN(ds, e.Eps, e.MinPts))
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		algos := []struct {
			name string
			run  func() (*clusterResult, error)
		}{
			{"min", runDBSVECOpts(ds, core.Options{Eps: e.Eps, MinPts: e.MinPts, NuMin: true, Seed: cfg.Seed, Workers: cfg.Workers})},
			{"star", runDBSVEC(ds, e.Eps, e.MinPts, cfg)},
			{"rho", runRho(ds, e.Eps, e.MinPts)},
			{"lsh", runLSH(ds, e.Eps, e.MinPts, cfg.Seed)},
		}
		var row []string
		for _, alg := range algos {
			res, err := alg.run()
			if err != nil {
				return fmt.Errorf("%s/%s: %w", e.Name, alg.name, err)
			}
			rec, err := eval.PairRecall(truth.res, res)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%10.3f", rec))
		}
		fmt.Fprintf(w, "%-10s %8d %8d | %s %s %s %s\n", e.Name, e.N, e.D, row[0], row[1], row[2], row[3])
	}
	return nil
}

// Table4 reproduces Table IV: internal validation (silhouette compactness
// "C", Davies–Bouldin separation "S") of DBSVEC vs k-MEANS on the Miss.,
// Breast. and Dim64 stand-ins. Metrics are computed on a sample capped at
// 3000 points to bound the O(n²) silhouette.
func Table4(w io.Writer, cfg Config) error {
	header(w, "Table IV: clustering validation (C=compactness higher better, S=separation lower better)")
	names := []string{"Miss.", "Breast.", "Dim64"}
	fmt.Fprintf(w, "%-10s | %12s %12s | %12s %12s\n", "dataset", "DBSVEC C", "DBSVEC S", "k-MEANS C", "k-MEANS S")
	for _, name := range names {
		e, err := data.SuiteByName(name)
		if err != nil {
			return err
		}
		ds := cfg.dataset(e.Gen(cfg.Seed))
		sv, err := timed(runDBSVEC(ds, e.Eps, e.MinPts, cfg))
		if err != nil {
			return err
		}
		k := sv.res.Clusters
		if k < 2 {
			k = 2
		}
		kmRes, _, _, err := kmeans.Run(ds, kmeans.Params{K: k, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		ids := sampleForMetrics(ds.Len(), 3000, cfg.Seed)
		sub := ds.Subset(ids)
		svSub := subResult(sv.res, ids)
		kmSub := subResult(kmRes, ids)
		svC, err := eval.Silhouette(sub, svSub)
		if err != nil {
			return err
		}
		svS, err := eval.DaviesBouldin(sub, svSub)
		if err != nil {
			return err
		}
		kmC, err := eval.Silhouette(sub, kmSub)
		if err != nil {
			return err
		}
		kmS, err := eval.DaviesBouldin(sub, kmSub)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s | %12.3f %12.3f | %12.3f %12.3f\n", name, svC, svS, kmC, kmS)
	}
	return nil
}

// Fig9a reproduces Figure 9a: the recall effect of the adaptive penalty
// weights (\WF removes them) and of incremental learning (\IL removes it)
// across the accuracy suite.
func Fig9a(w io.Writer, cfg Config) error {
	header(w, "Figure 9a: effect of SVDD improvements on recall")
	suite := data.OpenSuite()
	if cfg.Quick {
		suite = suite[:6]
	}
	fmt.Fprintf(w, "%-10s | %12s %12s %12s\n", "dataset", "DBSVEC\\WF", "DBSVEC\\IL", "DBSVEC")
	for _, e := range suite {
		ds := cfg.dataset(e.Gen(cfg.Seed))
		truth, err := timed(runRDBSCAN(ds, e.Eps, e.MinPts))
		if err != nil {
			return err
		}
		variants := []core.Options{
			{Eps: e.Eps, MinPts: e.MinPts, DisableWeights: true, Seed: cfg.Seed, Workers: cfg.Workers},
			{Eps: e.Eps, MinPts: e.MinPts, LearnThreshold: -1, Seed: cfg.Seed, Workers: cfg.Workers},
			{Eps: e.Eps, MinPts: e.MinPts, Seed: cfg.Seed, Workers: cfg.Workers},
		}
		var cols []string
		for _, opt := range variants {
			run, err := timed(runDBSVECOpts(ds, opt))
			if err != nil {
				return err
			}
			rec, err := eval.PairRecall(truth.res, run.res)
			if err != nil {
				return err
			}
			cols = append(cols, fmt.Sprintf("%12.3f", rec))
		}
		fmt.Fprintf(w, "%-10s | %s %s %s\n", e.Name, cols[0], cols[1], cols[2])
	}
	return nil
}

// CoreMaskCheck is a diagnostic (not in the paper) verifying Theorem 1/3 on
// a suite entry: DBSVEC core points clustered identically and noise sets
// equal. It returns the noise agreement fraction.
func CoreMaskCheck(name string, cfg Config) (float64, error) {
	e, err := data.SuiteByName(name)
	if err != nil {
		return 0, err
	}
	ds := cfg.dataset(e.Gen(cfg.Seed))
	truth, err := exactDBSCAN(ds, e.Eps, e.MinPts, backend.RTree)
	if err != nil {
		return 0, err
	}
	got, _, err := core.Run(ds, core.Options{Eps: e.Eps, MinPts: e.MinPts, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return 0, err
	}
	return eval.NoiseAgreement(truth, got)
}
