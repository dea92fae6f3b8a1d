package dbsvec

import (
	"context"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/engine"
	"dbsvec/internal/index/backend"
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
// one. Its String method returns the backend's CLI name.
type IndexKind = backend.Kind

// Supported index kinds. Every backend is exact and builds the same
// structure for every worker count, and no algorithm depends on the order
// a backend returns neighbors in, so the kind changes only the speed of a
// run: labels, Stats counters and saved models are the same for each.
const (
	// IndexLinear is the brute-force scan — DBSVEC's default, since it
	// needs no index structure.
	IndexLinear = backend.Linear
	// IndexKDTree is a bulk-loaded kd-tree.
	IndexKDTree = backend.KDTree
	// IndexRTree is an STR bulk-loaded R*-tree (the paper's R-DBSCAN
	// ground-truth configuration).
	IndexRTree = backend.RTree
	// IndexRProj is the random-projection cell backend: points are binned
	// by quantized random projections at build time and cells are pruned at
	// query time with exact centroid/radius ball bounds — exact query
	// semantics, built for high-dimensional embedding-like data.
	IndexRProj = backend.RProj
)

// Options configures Cluster. Zero values of optional fields select the
// paper's defaults.
type Options struct {
	// Eps is the ε-neighborhood radius (required). It must be > 0: zero,
	// negative and NaN values are rejected with an error wrapping
	// ErrInvalidParams.
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
	// paper's 3, -1 disables incremental learning.
	LearnThreshold int

	// DisableWeights turns off adaptive penalty weights (plain SVDD).
	DisableWeights bool

	// RandomKernel replaces the σ = r/√2 kernel width rule with a random
	// draw (ablation).
	RandomKernel bool

	// Seed feeds only the RandomKernel width draw. Every run is
	// deterministic whatever the seed: without RandomKernel it changes
	// nothing.
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
// spent, the degradation count, and the index-build, phase and SVDD-stage
// wall clocks. See the field docs on the core type.
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
	co, err := opts.coreOptions()
	if err != nil {
		return nil, err
	}
	co.Context = ctx
	res, retained, st, err := core.RunRetained(d.ds, co)
	if err != nil && res == nil {
		return nil, err
	}
	out := wrapResult(res)
	out.model = newModel(d, opts, res, retained)
	out.Stats = Stats{CoreStats: st}
	return out, err
}

// coreOptions converts the options one DBSVEC run reads into core.Options,
// with the index backend resolved to its builder. An unknown Index wraps
// ErrInvalidParams.
func (opts Options) coreOptions() (core.Options, error) {
	build, err := opts.Index.Builder(opts.Workers)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
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
		Budget:          opts.Budget,
	}, nil
}
