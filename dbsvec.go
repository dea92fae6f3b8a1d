package dbsvec

import (
	"context"
	"fmt"
	"math"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/engine"
	"dbsvec/internal/index"
	"dbsvec/internal/index/grid"
	"dbsvec/internal/index/kdtree"
	"dbsvec/internal/index/pyramid"
	"dbsvec/internal/index/rproj"
	"dbsvec/internal/index/rtree"
	"dbsvec/internal/index/vptree"
	"dbsvec/internal/svdd"
)

// Budget bounds the work a Cluster run may perform; see the field docs on
// the core type. A run that trips a budget limit still returns a valid
// partial clustering together with a *BudgetExceededError.
type Budget = core.Budget

// BudgetExceededError reports which Budget limit fired; it accompanies a
// valid partial Result, not a nil one.
type BudgetExceededError = core.BudgetExceededError

// WorkerPanicError wraps a panic recovered from a worker goroutine (or the
// clustering run itself), carrying the panic value and the goroutine's
// stack. Cluster never crashes the process on an internal panic; it returns
// one of these.
type WorkerPanicError = engine.WorkerPanicError

// ErrInvalidParams is wrapped by every parameter-validation failure, so
// errors.Is(err, ErrInvalidParams) classifies any up-front rejection.
var ErrInvalidParams = core.ErrInvalidParams

// ErrNotConverged reports that an SVDD solve hit its iteration cap before
// reaching the KKT tolerance. TrainOneClass returns it alongside a usable
// (best-iterate) model; inside Cluster it triggers the exact-expansion
// fallback counted in Stats.Degraded.
var ErrNotConverged = svdd.ErrNotConverged

// Noise is the label assigned to noise points in Result.Labels.
const Noise int32 = cluster.Noise

// IndexKind selects the range-query backend for the algorithms that accept
// one.
type IndexKind int

// Supported index kinds.
const (
	// IndexLinear is the brute-force scan — DBSVEC's default, since it
	// needs no index structure.
	IndexLinear IndexKind = iota
	// IndexKDTree is a bulk-loaded kd-tree.
	IndexKDTree
	// IndexRTree is an STR bulk-loaded R*-tree (the paper's R-DBSCAN
	// ground-truth configuration).
	IndexRTree
	// IndexGrid is a cell grid of width eps/√d with exact query semantics.
	IndexGrid
	// IndexParallel is a linear scan fanned out across all CPUs — exact
	// semantics, zero build cost, lower wall-clock per query.
	IndexParallel
	// IndexPyramid is the Pyramid technique (cited by the paper via the
	// P⁺-tree) — exact range queries that stay effective in high
	// dimensional spaces.
	IndexPyramid
	// IndexVPTree is a vantage-point tree: metric pruning via the triangle
	// inequality, a strong exact backend in high dimensions.
	IndexVPTree
	// IndexRProj is the random-projection cell backend: points are binned
	// by quantized random projections at build time and cells are pruned at
	// query time with exact centroid/radius ball bounds — exact query
	// semantics, built for high-dimensional embedding-like data.
	IndexRProj
)

// builder resolves the backend's construction function. workers sizes the
// parallel bulk loads of the tree and grid backends (<= 0 selects all CPUs);
// every backend builds bit-identical structures for every worker count, so
// workers only affects build wall-clock, never clustering output.
func (k IndexKind) builder(eps float64, dim, workers int) (index.Builder, error) {
	switch k {
	case IndexLinear:
		return index.BuildLinear, nil
	case IndexKDTree:
		return kdtree.BuildWorkers(workers), nil
	case IndexRTree:
		return rtree.BuildWorkers(workers), nil
	case IndexGrid:
		w := eps
		if dim > 0 && eps > 0 {
			w = eps / math.Sqrt(float64(dim))
		}
		if w <= 0 {
			return nil, fmt.Errorf("dbsvec: grid index requires eps > 0")
		}
		return grid.BuildWidthWorkers(w, workers), nil
	case IndexParallel:
		return index.BuildParallel, nil
	case IndexPyramid:
		return pyramid.Build, nil
	case IndexVPTree:
		return vptree.BuildWorkers(workers), nil
	case IndexRProj:
		return rproj.BuildWorkers(workers), nil
	default:
		return nil, fmt.Errorf("dbsvec: unknown index kind %d", k)
	}
}

// ctxBuilder resolves the cancellable construction function: the tree
// backends build natively under the context (a Budget deadline interrupts
// the bulk load at subtree granularity); the rest adapt via entry/exit
// checks.
func (k IndexKind) ctxBuilder(eps float64, dim, workers int) (index.CtxBuilder, error) {
	switch k {
	case IndexKDTree:
		return kdtree.BuildWorkersCtx(workers), nil
	case IndexRTree:
		return rtree.BuildWorkersCtx(workers), nil
	case IndexVPTree:
		return vptree.BuildWorkersCtx(workers), nil
	case IndexRProj:
		return rproj.BuildWorkersCtx(workers), nil
	}
	b, err := k.builder(eps, dim, workers)
	if err != nil {
		return nil, err
	}
	return index.WithContext(b), nil
}

// Options configures Cluster. Zero values of optional fields select the
// paper's defaults.
type Options struct {
	// Eps is the ε-neighborhood radius (required, > 0 for meaningful
	// results).
	Eps float64
	// MinPts is the density threshold, counting the point itself
	// (required, >= 1).
	MinPts int

	// Nu overrides the SVDD penalty factor ν ∈ (0,1]; 0 selects the
	// adaptive ν* of Eq. 20. NuMin selects the paper's DBSVEC_min variant
	// (ν = 1/ñ, a single support vector per training in the limit).
	Nu    float64
	NuMin bool

	// MemoryFactor is the λ > 1 of the adaptive penalty weights; 0 selects
	// 1.5.
	MemoryFactor float64

	// LearnThreshold is the incremental-learning threshold T; 0 selects the
	// paper's 3, negative disables incremental learning.
	LearnThreshold int

	// DisableWeights turns off adaptive penalty weights (plain SVDD).
	DisableWeights bool

	// RandomKernel replaces the σ = r/√2 kernel width rule with a random
	// draw (ablation).
	RandomKernel bool

	// Seed drives all randomized choices; runs with equal seeds are
	// reproducible.
	Seed int64

	// Index selects the range-query backend (default IndexLinear).
	Index IndexKind

	// Workers sizes the query-execution worker pool: each expansion round's
	// support-vector queries and the noise-verification core tests run as
	// batches fanned across this many goroutines. 0 selects all CPUs, 1
	// runs sequentially. Labels, Clusters and the θ-term Stats are
	// identical for every worker count given a fixed seed.
	Workers int

	// MaxSVDDTarget caps the SVDD target-set size (default 1024).
	MaxSVDDTarget int

	// WarmFrom supplies a previously trained (or loaded) Model as the
	// warm-restart source: the first SVDD round of every sub-cluster seeds
	// the solver from the saved multipliers of overlapping points. On
	// unchanged or mostly-overlapping data this reproduces the cold
	// clustering within solver tolerance at strictly fewer SMO iterations
	// (Stats.WarmRestarts counts the seeded rounds). nil cold-starts.
	WarmFrom *Model

	// Budget bounds the run's work (wall clock, SVDD rounds, range
	// queries). When a limit fires, Cluster returns the best-effort partial
	// clustering built so far together with a *BudgetExceededError: check
	// for it with errors.As and decide whether the partial result is good
	// enough. The zero value disables every limit. In sharded mode the
	// budget applies per shard.
	Budget Budget

	// Shards is the eps-halo slab count for RunSharded/RunShardedFile
	// (default 1 = single-shot semantics). Ignored by Cluster.
	Shards int

	// ShardConcurrency caps the shards in flight during a sharded run,
	// bounding peak memory at O(ShardConcurrency × slab). 0 selects 1
	// (fully sequential, minimum footprint). Ignored by Cluster.
	ShardConcurrency int
}

// PhaseTimes is the per-phase wall-clock breakdown reported by the
// execution engine: Init covers initialization (DBSVEC's seed sweep,
// parallel DBSCAN's neighborhood materialization), Expand the expansion or
// merge phase, Verify the noise-verification or border-attachment phase.
type PhaseTimes = engine.PhaseTimes

// SVDDTimes is the per-stage wall-clock breakdown of SVDD training
// accumulated across a run's training rounds: kernel-matrix fill, SMO
// solve, and radius/score extraction.
type SVDDTimes = engine.SVDDTimes

// CoreStats is the work report of one DBSVEC run: every term of the paper's
// θ = s + 1 + k + m + MinPts·l cost model (Seeds, SupportVectors, Merges,
// NoiseList), the ε-queries, SVDD trainings and SMO iterations actually
// spent, degradation and warm-restart counts, and the index-build, phase and
// SVDD-stage wall clocks. See the field docs on the core type.
type CoreStats = core.Stats

// Stats reports the work a DBSVEC run performed. The CoreStats fields are
// promoted, so res.Stats.Seeds, res.Stats.SVDDIterations etc. read directly.
type Stats struct {
	CoreStats
	// Sharding reports the slab plan, per-shard execution and peak heap of a
	// RunSharded/RunShardedFile run; nil for single-shot Cluster runs. The
	// CoreStats fields are then the sums over all shards.
	Sharding *ShardStats
}

// Result is the outcome of a clustering run.
type Result struct {
	// Labels assigns each input point a cluster id in [0, Clusters) or
	// Noise (-1).
	Labels []int32
	// Clusters is the number of clusters found.
	Clusters int
	// Stats holds DBSVEC work counters; zero for other algorithms unless
	// documented.
	Stats Stats

	inner *cluster.Result
	model *Model
}

// NoiseCount returns the number of noise points.
func (r *Result) NoiseCount() int { return r.inner.NoiseCount() }

// ClusterSizes returns the size of each cluster indexed by cluster id.
func (r *Result) ClusterSizes() []int { return r.inner.Sizes() }

func wrapResult(res *cluster.Result) *Result {
	return &Result{Labels: res.Labels, Clusters: res.Clusters, inner: res}
}

// NewResult wraps externally produced labels — e.g. Model.Assign output —
// into a Result so WriteCSV, the metrics functions and the rendering helpers
// accept them. labels must hold cluster ids in [0, clusters) or Noise; the
// slice is used directly, not copied.
func NewResult(labels []int32, clusters int) *Result {
	return wrapResult(&cluster.Result{Labels: labels, Clusters: clusters})
}

// Cluster runs DBSVEC over the dataset.
func Cluster(d *Dataset, opts Options) (*Result, error) {
	return ClusterContext(context.Background(), d, opts)
}

// ClusterContext runs DBSVEC with cancellation: when ctx is cancelled the
// run stops between phases and returns ctx's error.
//
// When Options.Budget trips, the returned *Result is non-nil — the valid
// partial clustering — and the error is a *BudgetExceededError; every other
// error comes with a nil Result.
func ClusterContext(ctx context.Context, d *Dataset, opts Options) (*Result, error) {
	if d == nil {
		return nil, core.ErrNilDataset
	}
	build, err := opts.Index.ctxBuilder(opts.Eps, d.Dim(), opts.Workers)
	if err != nil {
		return nil, err
	}
	var warm []*svdd.Snapshot
	if opts.WarmFrom != nil {
		warm = opts.WarmFrom.snapshots()
	}
	res, retained, st, err := core.RunRetained(d.ds, core.Options{
		Context:         ctx,
		Eps:             opts.Eps,
		MinPts:          opts.MinPts,
		Nu:              opts.Nu,
		NuMin:           opts.NuMin,
		MemoryFactor:    opts.MemoryFactor,
		LearnThreshold:  opts.LearnThreshold,
		DisableWeights:  opts.DisableWeights,
		RandomKernel:    opts.RandomKernel,
		Seed:            opts.Seed,
		IndexBuilderCtx: build,
		Workers:         opts.Workers,
		MaxSVDDTarget:   opts.MaxSVDDTarget,
		WarmModels:      warm,
		Budget:          opts.Budget,
	})
	if err != nil && res == nil {
		return nil, err
	}
	out := wrapResult(res)
	out.model = newModel(d, opts, res, retained)
	out.Stats = Stats{CoreStats: st}
	return out, err
}
