// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on this repository's implementations and synthetic
// dataset stand-ins. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured values.
//
// The package is shared between cmd/benchall (human-facing runs) and the
// repository-level testing.B benchmarks.
package experiments

import (
	"errors"
	"fmt"
	"io"
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

// clusterResult aliases the shared result type so experiment tables can
// name it without importing the cluster package everywhere.
type clusterResult = cluster.Result

// Config steers experiment scale.
type Config struct {
	// Quick selects reduced cardinalities so the whole harness finishes in
	// minutes; Full approaches the paper's scales (hours).
	Quick bool
	// Seed drives all dataset generation and randomized algorithms.
	Seed int64
	// Budget is a soft per-algorithm-run time limit standing in for the
	// paper's 10-hour cap: runs predicted (by prior samples) to exceed it
	// are skipped and reported as "-". 0 selects 30s in quick mode, 10min
	// otherwise.
	Budget time.Duration
	// Workers sets the query-engine worker count for DBSVEC runs
	// (core.Options.Workers); 0 selects all CPUs.
	Workers int
	// RunTimeout, when positive, arms a hard per-run wall-clock budget
	// (core.Budget.MaxDuration) on every DBSVEC run. Unlike Budget — which
	// skips runs predicted to be slow — a tripped RunTimeout stops the run
	// in flight and the experiment proceeds with the partial clustering.
	RunTimeout time.Duration
	// Reports maps a report experiment's id ("svdd", "index", "highdim",
	// "shard") to the file its rows are merged into (see writeReport); an
	// id with no path writes no report.
	Reports map[string]string
	// Precision selects the point-storage mode datasets are generated in
	// (vec.F64 default). The precision-dimension sections of the svdd and
	// index benchmarks measure both modes regardless; this knob converts the
	// main experiment datasets, mirroring the CLI -precision flag.
	Precision vec.Precision
}

// dataset applies the configured storage precision to a generated dataset.
// Conversion to F32 cannot fail for the bounded synthetic generators, so the
// error path collapses to a panic guard.
func (c Config) dataset(ds *vec.Dataset) *vec.Dataset {
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

// algoResult is one timed clustering run.
type algoResult struct {
	res     *cluster.Result
	elapsed time.Duration
	skipped bool
}

// timed runs fn and captures elapsed wall time.
func timed(fn func() (*cluster.Result, error)) (algoResult, error) {
	start := time.Now()
	res, err := fn()
	if err != nil {
		return algoResult{}, err
	}
	return algoResult{res: res, elapsed: time.Since(start)}, nil
}

// skipped is the placeholder for runs beyond the budget.
func skipped() algoResult { return algoResult{skipped: true} }

func fmtDur(a algoResult) string {
	if a.skipped {
		return "-"
	}
	return fmt.Sprintf("%.3fs", a.elapsed.Seconds())
}

// Algorithms. Each returns a runnable closure for the given dataset and
// parameters, used uniformly across experiments.

func runDBSVEC(ds *vec.Dataset, eps float64, minPts int, cfg Config) func() (*cluster.Result, error) {
	return runDBSVECOpts(ds, core.Options{
		Eps: eps, MinPts: minPts, Seed: cfg.Seed, Workers: cfg.Workers,
		Budget: core.Budget{MaxDuration: cfg.RunTimeout},
	})
}

func runDBSVECOpts(ds *vec.Dataset, opts core.Options) func() (*cluster.Result, error) {
	return func() (*cluster.Result, error) {
		res, _, err := core.Run(ds, opts)
		// A tripped run budget still carries a valid partial clustering;
		// experiments report it rather than aborting the whole table.
		var be *core.BudgetExceededError
		if errors.As(err, &be) && res != nil {
			return res, nil
		}
		return res, err
	}
}

// exactDBSCAN runs exact DBSCAN over a serially built backend of the table.
func exactDBSCAN(ds *vec.Dataset, eps float64, minPts int, kind backend.Kind) (*cluster.Result, error) {
	build, err := kind.Builder(1)
	if err != nil {
		return nil, err
	}
	res, _, err := dbscan.Run(ds, dbscan.Params{Eps: eps, MinPts: minPts}, build)
	return res, err
}

func runRDBSCAN(ds *vec.Dataset, eps float64, minPts int) func() (*cluster.Result, error) {
	return func() (*cluster.Result, error) {
		return exactDBSCAN(ds, eps, minPts, backend.RTree)
	}
}

func runKDDBSCAN(ds *vec.Dataset, eps float64, minPts int) func() (*cluster.Result, error) {
	return func() (*cluster.Result, error) {
		return exactDBSCAN(ds, eps, minPts, backend.KDTree)
	}
}

func runRho(ds *vec.Dataset, eps float64, minPts int) func() (*cluster.Result, error) {
	return func() (*cluster.Result, error) {
		res, _, err := rhodbscan.Run(ds, rhodbscan.Params{Eps: eps, MinPts: minPts, Rho: 0.001})
		return res, err
	}
}

func runLSH(ds *vec.Dataset, eps float64, minPts int, seed int64) func() (*cluster.Result, error) {
	return func() (*cluster.Result, error) {
		p := lshdbscan.Params{Eps: eps, MinPts: minPts}
		p.Hash.Seed = seed
		res, _, err := lshdbscan.Run(ds, p)
		return res, err
	}
}

func runNQ(ds *vec.Dataset, eps float64, minPts int) func() (*cluster.Result, error) {
	return func() (*cluster.Result, error) {
		res, _, err := nqdbscan.Run(ds, nqdbscan.Params{Eps: eps, MinPts: minPts})
		return res, err
	}
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

// header prints an experiment banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
