// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on this repository's implementations and synthetic
// dataset stand-ins, plus the component benchmarks behind the committed
// BENCH_*.json reports. Every experiment emits Rows, the one result format:
// Experiment.Execute prints them as they arrive and merges them into the
// experiment's report file. EXPERIMENTS.md records paper-vs-measured values;
// cmd/benchall is the command-line front end.
package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/index/backend"
	"dbsvec/internal/lshdbscan"
	"dbsvec/internal/nqdbscan"
	"dbsvec/internal/rhodbscan"
	"dbsvec/internal/vec"
)

// Config steers experiment scale.
type Config struct {
	// Quick selects reduced cardinalities so the whole harness finishes in
	// minutes; Full approaches the paper's scales (hours).
	Quick bool
	// Seed drives all dataset generation and randomized algorithms.
	Seed int64
	// Budget is a soft per-algorithm-run time limit standing in for the
	// paper's 10-hour cap: once an algorithm's run in a sweep exceeds it,
	// the algorithm skips the rest of the sweep and emits no more rows. 0
	// selects 30s in quick mode, 10min otherwise.
	Budget time.Duration
	// Workers sets the query-engine worker count for DBSVEC runs
	// (core.Options.Workers); 0 selects all CPUs.
	Workers int
	// RunTimeout, when positive, arms a hard per-run wall-clock budget
	// (core.Budget.MaxDuration) on every DBSVEC run. Unlike Budget — which
	// skips runs predicted to be slow — a tripped RunTimeout stops the run
	// in flight and the experiment proceeds with the partial clustering.
	RunTimeout time.Duration
	// Reports maps an experiment's id to the file its rows are merged into
	// (see writeReport); an id with no path writes no report.
	Reports map[string]string
	// Precision selects the point-storage mode datasets are generated in
	// (vec.F64 default). The precision-dimension sections of the svdd and
	// index benchmarks measure both modes regardless; this knob converts the
	// main experiment datasets, mirroring the CLI -precision flag.
	Precision vec.Precision
}

// dataset applies the configured storage precision to a generated dataset.
// Data the generator already quantized (the DBSVEC_PRECISION=f32 process
// default) stays F32: widening it would keep the quantized values but drop
// the precision measure labels rows with. Conversion to F32 cannot fail for
// the bounded synthetic generators, so the error path collapses to a panic
// guard.
func (c Config) dataset(ds *vec.Dataset) *vec.Dataset {
	if ds.Precision() == vec.F32 {
		return ds
	}
	out, err := ds.ToPrecision(c.Precision)
	if err != nil {
		panic(fmt.Sprintf("experiments: precision conversion: %v", err))
	}
	return out
}

func (c Config) budget() time.Duration {
	if c.Budget != 0 {
		return c.Budget
	}
	if c.Quick {
		return 30 * time.Second
	}
	return 10 * time.Minute
}

// dbsvecOptions are the harness's DBSVEC options at one (eps, minPts).
func (c Config) dbsvecOptions(eps float64, minPts int) core.Options {
	return core.Options{
		Eps: eps, MinPts: minPts, Seed: c.Seed, Workers: c.Workers,
		Budget: core.Budget{MaxDuration: c.RunTimeout},
	}
}

// measure runs one clustering of ds at (eps, minPts) and returns its result
// with its row: exp and params as given plus the dataset's n and d, its
// storage precision and the seed, the clusters and noise of the result as
// counts, and the wall clock as elapsed_ns.
func measure(cfg Config, exp string, params map[string]any, run algo, ds *vec.Dataset, eps float64, minPts int) (Row, *cluster.Result, error) {
	start := time.Now()
	res, err := run(cfg, ds, eps, minPts)
	if err != nil {
		return Row{}, nil, err
	}
	elapsed := time.Since(start)
	params["n"], params["d"] = ds.Len(), ds.Dim()
	params["precision"], params["seed"] = ds.Precision().String(), cfg.Seed
	return Row{
		Exp:      exp,
		Params:   params,
		Counts:   map[string]float64{"clusters": float64(res.Clusters), "noise": float64(res.NoiseCount())},
		Measured: map[string]float64{"elapsed_ns": float64(elapsed.Nanoseconds())},
	}, res, nil
}

// Algorithms. Each runs one clustering of ds at (eps, minPts), so every
// experiment can sweep any of them the same way.

// algo is one competitor of the evaluation.
type algo func(cfg Config, ds *vec.Dataset, eps float64, minPts int) (*cluster.Result, error)

// namedAlgo is an algorithm under its table label.
type namedAlgo struct {
	name string
	run  algo
}

// runCore runs DBSVEC with the given options. A tripped run budget still
// carries a valid partial clustering; experiments report it rather than
// aborting the whole table.
func runCore(ds *vec.Dataset, opts core.Options) (*cluster.Result, core.Stats, error) {
	res, st, err := core.Run(ds, opts)
	var be *core.BudgetExceededError
	if errors.As(err, &be) && res != nil {
		return res, st, nil
	}
	return res, st, err
}

// dbsvecWith returns DBSVEC with set applied to the harness options: the
// paper's variants (ν_min, a fixed ν, each SVDD improvement removed).
func dbsvecWith(set func(*core.Options)) algo {
	return func(cfg Config, ds *vec.Dataset, eps float64, minPts int) (*cluster.Result, error) {
		opts := cfg.dbsvecOptions(eps, minPts)
		set(&opts)
		res, _, err := runCore(ds, opts)
		return res, err
	}
}

// runDBSVEC is DBSVEC with the harness options.
var runDBSVEC = dbsvecWith(func(*core.Options) {})

// exactDBSCAN runs exact DBSCAN over a serially built backend of the table.
func exactDBSCAN(ds *vec.Dataset, eps float64, minPts int, kind backend.Kind) (*cluster.Result, error) {
	build, err := kind.Builder(1)
	if err != nil {
		return nil, err
	}
	res, _, err := dbscan.Run(ds, dbscan.Params{Eps: eps, MinPts: minPts}, build)
	return res, err
}

func runRDBSCAN(_ Config, ds *vec.Dataset, eps float64, minPts int) (*cluster.Result, error) {
	return exactDBSCAN(ds, eps, minPts, backend.RTree)
}

func runKDDBSCAN(_ Config, ds *vec.Dataset, eps float64, minPts int) (*cluster.Result, error) {
	return exactDBSCAN(ds, eps, minPts, backend.KDTree)
}

func runRho(_ Config, ds *vec.Dataset, eps float64, minPts int) (*cluster.Result, error) {
	res, _, err := rhodbscan.Run(ds, rhodbscan.Params{Eps: eps, MinPts: minPts, Rho: 0.001})
	return res, err
}

func runLSH(cfg Config, ds *vec.Dataset, eps float64, minPts int) (*cluster.Result, error) {
	p := lshdbscan.Params{Eps: eps, MinPts: minPts}
	p.Hash.Seed = cfg.Seed
	res, _, err := lshdbscan.Run(ds, p)
	return res, err
}

func runNQ(_ Config, ds *vec.Dataset, eps float64, minPts int) (*cluster.Result, error) {
	res, _, err := nqdbscan.Run(ds, nqdbscan.Params{Eps: eps, MinPts: minPts})
	return res, err
}

// sampleForMetrics returns up to cap point ids drawn without replacement,
// used to keep O(n²) quality metrics tractable.
func sampleForMetrics(n, cap int, seed int64) []int32 {
	if n <= cap {
		return vec.Iota(n)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)[:cap]
	ids := make([]int32, cap)
	for i, p := range perm {
		ids[i] = int32(p)
	}
	return ids
}

// subResult restricts a clustering result to the given point ids.
func subResult(res *cluster.Result, ids []int32) *cluster.Result {
	labels := make([]int32, len(ids))
	for i, id := range ids {
		labels[i] = res.Labels[id]
	}
	out := &cluster.Result{Labels: labels}
	return out.Compact()
}
