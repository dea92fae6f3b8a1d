package experiments

import (
	"fmt"
	"maps"

	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/eval"
	"dbsvec/internal/svdd"
	"dbsvec/internal/vec"
)

// Paper defaults for the efficiency experiments (Section V-C): coordinates
// normalized to [0,10^5], MinPts=100, eps=5000.
const (
	effEps    = 5000.0
	effMinPts = 100
)

// effAlgos are the competitors of the efficiency sweeps.
var effAlgos = []namedAlgo{
	{"DBSVEC", runDBSVEC},
	{"R-DBSCAN", runRDBSCAN},
	{"kd-DBSCAN", runKDDBSCAN},
	{"rho-Appr", runRho},
	{"DBSCAN-LSH", runLSH},
	{"NQ-DBSCAN", runNQ},
}

// runSweep runs every algorithm on every point of a sweep, emitting one row
// per run: the point's params plus the algorithm. at(i) gives point i's
// dataset and radius. An algorithm whose run exceeds cfg's budget skips the
// remaining (larger) points and emits no row for them, standing in for the
// paper's 10-hour cap.
func runSweep(cfg Config, exp string, emit func(Row), algos []namedAlgo, points []map[string]any, at func(i int) (*vec.Dataset, float64)) error {
	budget := float64(cfg.budget().Nanoseconds())
	disabled := make([]bool, len(algos))
	for i, params := range points {
		ds, eps := at(i)
		for j, a := range algos {
			if disabled[j] {
				continue
			}
			p := maps.Clone(params)
			p["algo"] = a.name
			row, _, err := measure(cfg, exp, p, a.run, ds, eps, effMinPts)
			if err != nil {
				return fmt.Errorf("%s at %v: %w", a.name, params, err)
			}
			disabled[j] = row.Measured["elapsed_ns"] > budget
			emit(row)
		}
	}
	return nil
}

// spreader generates the sweeps' synthetic SeedSpreader dataset.
func spreader(cfg Config, n, d int) *vec.Dataset {
	return cfg.dataset(data.SeedSpreader{N: n, D: d, Seed: cfg.Seed}.Generate())
}

// spreaderPoints names the points of a sweep over SeedSpreader data.
func spreaderPoints(n int) []map[string]any {
	points := make([]map[string]any, n)
	for i := range points {
		points[i] = map[string]any{"dataset": "spreader"}
	}
	return points
}

// Fig6a reproduces Figure 6a: runtime vs cardinality on 8-dimensional
// synthetic data (paper: 100k..10M; quick mode: 5k..100k).
func Fig6a(cfg Config, emit func(Row)) error {
	sizes := []int{100000, 500000, 1000000, 2000000, 5000000, 10000000}
	if cfg.Quick {
		sizes = []int{5000, 10000, 20000, 50000, 100000}
	}
	return runSweep(cfg, "fig6a", emit, effAlgos, spreaderPoints(len(sizes)), func(i int) (*vec.Dataset, float64) {
		return spreader(cfg, sizes[i], 8), effEps
	})
}

// Fig6b reproduces Figure 6b: runtime vs dimensionality at fixed
// cardinality (paper: d=2..24 at n=2M; quick mode n=20k).
func Fig6b(cfg Config, emit func(Row)) error {
	n := 2000000
	if cfg.Quick {
		n = 20000
	}
	dims := []int{2, 4, 8, 16, 24}
	return runSweep(cfg, "fig6b", emit, effAlgos, spreaderPoints(len(dims)), func(i int) (*vec.Dataset, float64) {
		return spreader(cfg, n, dims[i]), effEps
	})
}

// Fig7 reproduces Figure 7: runtime vs radius eps on the synthetic dataset
// (a) and the three real-world stand-ins (b: PAMAP2, c: Sensors,
// d: Corel-Image). Each dataset is its own sweep, so the budget latch
// resets between them.
func Fig7(cfg Config, emit func(Row)) error {
	radii := []float64{5000, 15000, 25000, 35000, 45000, 55000}
	nSynth, nReal := 2000000, 0 // real suites use their full cardinality
	if cfg.Quick {
		nSynth, nReal = 20000, 20000
	}
	sweepEps := func(name string, ds *vec.Dataset) error {
		points := make([]map[string]any, len(radii))
		for i, r := range radii {
			points[i] = map[string]any{"dataset": name, "eps": r}
		}
		return runSweep(cfg, "fig7", emit, effAlgos, points, func(i int) (*vec.Dataset, float64) {
			return ds, radii[i]
		})
	}

	if err := sweepEps("spreader", spreader(cfg, nSynth, 8)); err != nil {
		return err
	}
	for _, e := range data.RealWorldSuite() {
		n := e.FullN
		if nReal > 0 && n > nReal {
			n = nReal
		}
		if err := sweepEps(e.Name, cfg.dataset(e.Gen(n, cfg.Seed).NormalizeTo(1e5))); err != nil {
			return err
		}
	}
	return nil
}

// Fig8 reproduces Figure 8: DBSVEC runtime as the penalty factor ν grows
// in multiples of ν* (taken at a 1024-point target), on synthetic data.
// Each row holds the ν it ran with.
func Fig8(cfg Config, emit func(Row)) error {
	n := 2000000
	if cfg.Quick {
		n = 20000
	}
	ds := spreader(cfg, n, 8)
	nuStar := svdd.NuStar(8, effMinPts, 1024)
	for _, m := range []float64{1, 2, 4, 8, 16} {
		nu := min(nuStar*m, 1)
		run := dbsvecWith(func(o *core.Options) { o.Nu = nu })
		row, _, err := measure(cfg, "fig8", map[string]any{"dataset": "spreader", "nu_mult": m}, run, ds, effEps, effMinPts)
		if err != nil {
			return err
		}
		row.Counts["nu"] = nu
		emit(row)
	}
	return nil
}

// Fig9b reproduces Figure 9b: the efficiency effect of incremental learning
// (\IL disables it) and kernel parameter selection (\OK randomizes σ) on
// 8-dimensional synthetic data. Each row's recall is its pair recall
// against the full DBSVEC, which runs first as the reference.
func Fig9b(cfg Config, emit func(Row)) error {
	n := 2000000
	if cfg.Quick {
		n = 20000
	}
	ds := spreader(cfg, n, 8)
	params := func(variant string) map[string]any {
		return map[string]any{"dataset": "spreader", "algo": variant}
	}
	fullRow, full, err := measure(cfg, "fig9b", params("DBSVEC"), runDBSVEC, ds, effEps, effMinPts)
	if err != nil {
		return err
	}
	fullRow.Counts["recall"] = 1
	emit(fullRow)
	for _, v := range []namedAlgo{
		{"DBSVEC\\IL", dbsvecWith(func(o *core.Options) { o.LearnThreshold = -1 })},
		{"DBSVEC\\OK", dbsvecWith(func(o *core.Options) { o.RandomKernel = true })},
	} {
		row, res, err := measure(cfg, "fig9b", params(v.name), v.run, ds, effEps, effMinPts)
		if err != nil {
			return err
		}
		if row.Counts["recall"], err = eval.PairRecall(full, res); err != nil {
			return err
		}
		emit(row)
	}
	return nil
}
