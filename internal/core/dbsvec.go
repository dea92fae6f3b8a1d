// Package core implements DBSVEC (Algorithms 2 and 3 of the paper):
// density-based clustering that expands sub-clusters by running range
// queries only on *core support vectors* found by SVDD, instead of on every
// point as DBSCAN does.
//
// The four phases of the algorithm map to this implementation as follows:
//
//   - initialization: scan for an unclassified point, test it with one range
//     query, and seed a new sub-cluster from its ε-neighborhood
//     (Algorithm 2 lines 2–8);
//   - support vector expansion: train (weighted, incremental) SVDD on the
//     sub-cluster and grow it from the ε-neighborhoods of the core support
//     vectors until no new points arrive (Algorithm 3);
//   - sub-cluster merging: when an expansion touches a point already owned
//     by another sub-cluster and that point proves to be a core point, the
//     two sub-clusters are united (Algorithm 2 line 11, Algorithm 3
//     line 13) — implemented with a union–find over cluster ids;
//   - noise verification: each potential noise point is confirmed as noise
//     or attached to the cluster of its nearest core neighbor, reusing the
//     ε-neighborhood already computed during initialization (Algorithm 2
//     line 16).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"dbsvec/internal/cluster"
	"dbsvec/internal/engine"
	"dbsvec/internal/fault"
	"dbsvec/internal/index"
	"dbsvec/internal/svdd"
	"dbsvec/internal/unionfind"
	"dbsvec/internal/vec"
)

// Options configures a DBSVEC run. The zero value of every optional field
// selects the paper's default behaviour.
type Options struct {
	// Eps is the ε radius (required). It must be > 0: zero, negative and
	// NaN values are rejected with an error wrapping ErrInvalidParams.
	Eps float64
	// MinPts is the density threshold (required, >= 1).
	MinPts int

	// Nu overrides the penalty factor ν. 0 selects the adaptive ν* of
	// Eq. 20. Set NuMin for the paper's DBSVEC_min variant (ν = 1/ñ).
	Nu    float64
	NuMin bool

	// LearnThreshold is the incremental-learning threshold T: points that
	// participated in more than T SVDD trainings leave the target set.
	// 0 selects the paper's T = 3; -1 disables incremental learning (the
	// DBSVEC\IL ablation).
	LearnThreshold int

	// DisableWeights turns off the adaptive penalty weights (the DBSVEC\WF
	// ablation): plain SVDD with uniform ω_i = 1.
	DisableWeights bool

	// RandomKernel replaces the σ = r/√2 rule with a σ drawn uniformly from
	// [min pairwise distance, max pairwise distance] of the target set (the
	// DBSVEC\OK ablation).
	RandomKernel bool

	// Seed drives the RandomKernel draw. Ignored otherwise.
	Seed int64

	// IndexBuilderCtx supplies the range-query backend as a cancellable
	// construction: a Budget deadline or a cancelled Context interrupts the
	// build itself instead of waiting for it to finish. nil selects the
	// linear scan — DBSVEC needs no index (Section III-D). The backend
	// table (internal/index/backend) resolves every backend to one.
	IndexBuilderCtx index.CtxBuilder

	// MaxSVDDTarget caps the SVDD target-set size; larger targets are
	// deterministically subsampled before training. 0 selects 1024. The cap
	// bounds the O(ñ²) kernel work per training round; incremental learning
	// keeps targets under it in normal operation.
	MaxSVDDTarget int

	// Workers is the query-execution worker count: each expansion round's
	// support-vector query set and the noise list's pending core tests are
	// submitted as one batch fanned across this many goroutines. <= 0
	// selects GOMAXPROCS; 1 runs fully sequentially. Results are merged in
	// query-index order, so Labels and the θ-term Stats are identical for
	// every worker count given a fixed seed.
	Workers int

	// Context, when non-nil, allows cancelling a long run: Run returns
	// ctx.Err() with partial work discarded. Checked between seeds and
	// inside expansion rounds and noise verification (the engine checks it
	// throughout every query batch).
	Context context.Context

	// Budget bounds the run's work. Unlike an external cancellation, a
	// tripped budget returns a best-effort *partial* clustering together
	// with a *BudgetExceededError. The zero value disables every limit.
	Budget Budget
}

// ErrInvalidParams is wrapped by every rejection of malformed Options; it
// is the sentinel the baselines wrap too.
var ErrInvalidParams = fault.ErrInvalidParams

// Validate rejects malformed Options with an error wrapping
// ErrInvalidParams. Every float check is written so that NaN, which fails
// every comparison, fails it too. Run calls it first; a caller that does
// work before its first Run (the sharded planner) calls it itself.
func (o Options) Validate() error {
	if !(o.Eps > 0) {
		return fmt.Errorf("%w: eps %g must be positive", ErrInvalidParams, o.Eps)
	}
	if o.MinPts < 1 {
		return fmt.Errorf("%w: MinPts %d must be at least 1", ErrInvalidParams, o.MinPts)
	}
	if !(o.Nu >= 0 && o.Nu <= 1) {
		return fmt.Errorf("%w: nu %g must be in (0,1] (0 selects the adaptive ν*)", ErrInvalidParams, o.Nu)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: Workers %d must be non-negative (0 selects GOMAXPROCS)", ErrInvalidParams, o.Workers)
	}
	if o.MaxSVDDTarget < 0 {
		return fmt.Errorf("%w: MaxSVDDTarget %d must be non-negative", ErrInvalidParams, o.MaxSVDDTarget)
	}
	if o.LearnThreshold < -1 {
		return fmt.Errorf("%w: LearnThreshold %d must be -1 (disabled), 0 (default) or positive", ErrInvalidParams, o.LearnThreshold)
	}
	return o.Budget.validate()
}

// Stats reports the work a run performed. The paper's cost model
// (Section III-D) is O(θn) with θ = s + 1 + k + m + MinPts·l; the fields
// expose every term so tests and the experiment harness can validate that
// θ ≪ n.
type Stats struct {
	// Seeds is s: the number of sub-cluster seeds.
	Seeds int
	// SupportVectors is k: total support vectors across all SVDD trainings.
	SupportVectors int64
	// Merges is m: the number of sub-cluster merges.
	Merges int
	// NoiseList is l: the number of potential noise points.
	NoiseList int
	// RangeQueries counts full ε-range queries (neighbor materialization).
	RangeQueries int64
	// RangeCounts counts core-point tests answered with counting queries.
	RangeCounts int64
	// SVDDTrainings is the number of SVDD models fitted.
	SVDDTrainings int
	// SVDDIterations is the total number of SMO pair updates.
	SVDDIterations int64
	// Degraded counts the sub-clusters whose SVDD training failed in a
	// recoverable way (non-convergence, degenerate kernel width, all-SV
	// blowup) and that were therefore completed by the exact range-query
	// expansion fallback instead of support-vector expansion. A degraded
	// sub-cluster loses the θ speedup but keeps DBSCAN-exact semantics.
	Degraded int
	// RetainedModels is the number of per-sub-cluster SVDD snapshots the run
	// retained (RunRetained only; 0 for Run).
	RetainedModels int
	// IndexBuild is the wall-clock spent constructing the range-query index
	// before clustering starts. Not part of the θ model; determinism
	// comparisons must ignore it.
	IndexBuild time.Duration
	// Phases is the per-phase wall-clock breakdown (Init = seed sweep,
	// Expand = SV expansion, Verify = noise verification). Not part of the
	// θ model; determinism comparisons must ignore it.
	Phases engine.PhaseTimes
	// SVDD is the per-stage wall-clock of all SVDD trainings (kernel fill /
	// SMO solve / radius extraction), a sub-breakdown of Phases.Expand.
	// Like Phases it varies run to run.
	SVDD engine.SVDDTimes
}

// Theta returns the paper's θ = s + 1 + k + m + MinPts·l for a run over a
// dataset clustered with the given MinPts.
func (s Stats) Theta(minPts int) float64 {
	return float64(s.Seeds) + 1 + float64(s.SupportVectors) + float64(s.Merges) + float64(minPts*s.NoiseList)
}

// Add accumulates every counter and wall clock of o into s; a sharded run
// reports the sum of its shards' Stats this way.
func (s *Stats) Add(o Stats) {
	s.Seeds += o.Seeds
	s.SupportVectors += o.SupportVectors
	s.Merges += o.Merges
	s.NoiseList += o.NoiseList
	s.RangeQueries += o.RangeQueries
	s.RangeCounts += o.RangeCounts
	s.SVDDTrainings += o.SVDDTrainings
	s.SVDDIterations += o.SVDDIterations
	s.Degraded += o.Degraded
	s.RetainedModels += o.RetainedModels
	s.IndexBuild += o.IndexBuild
	s.Phases.Init += o.Phases.Init
	s.Phases.Expand += o.Phases.Expand
	s.Phases.Verify += o.Phases.Verify
	s.SVDD.Add(o.SVDD)
}

// ErrNilDataset is returned for a nil dataset.
var ErrNilDataset = errors.New("dbsvec: nil dataset")

const (
	defaultLearnThresh   = 3
	defaultMaxSVDDTarget = 1024
)

// coreState is tri-state knowledge about the core-point property.
type coreState int8

const (
	coreUnknown coreState = iota
	coreYes
	coreNo
)

type runner struct {
	ds   *vec.Dataset
	opts Options
	// ctx is the run's working context: the caller's Context with the
	// Budget.MaxDuration deadline layered on top. parent is the caller's
	// context alone — checking it apart from ctx is what distinguishes an
	// external cancellation (hard error, partial work discarded) from a
	// budget trip (partial result returned).
	ctx    context.Context
	parent context.Context
	start  time.Time
	// budgetErr records the first Budget limit that fired (see trip).
	budgetErr *BudgetExceededError
	// idx serves the sequential seed queries and, as whole batches fanned
	// across workers goroutines, each round's SV query set and the noise
	// list's core tests. hoods and counts are the batch result arenas,
	// reused across rounds.
	idx     index.BatchIndex
	workers int
	hoods   [][]int32
	counts  []int
	labels  []int32
	// clusterSet maps raw cluster ids (one per seed) to merged sets.
	clusterSet *unionfind.DSU
	core       []coreState
	stats      Stats
	rng        *rand.Rand

	// Potential noise points and the ε-neighborhoods captured when they
	// failed the seed test (reused by noise verification).
	noiseIDs   []int32
	noiseHoods [][]int32

	buf []int32
	// cand is the per-round batch of support vectors awaiting queries.
	cand []int32

	// retain enables model retention (RunRetained): every training round
	// appends a snapshot to retained under its raw seed cluster id, and
	// finalizeRetained rewrites the ids into the final dense label space.
	retain   bool
	retained []RetainedModel
}

// Run executes DBSVEC over ds and returns the clustering, run statistics,
// and an error for invalid inputs.
//
// Failure contract:
//   - invalid Options wrap ErrInvalidParams; a nil dataset is ErrNilDataset;
//   - an external cancellation (Options.Context) returns the context's error
//     with partial work discarded;
//   - a tripped Options.Budget returns a *valid partial clustering* plus a
//     *BudgetExceededError — every label is a cluster id or Noise;
//   - a panic anywhere in the run (worker goroutines included) is contained
//     and returned as a *fault.WorkerPanicError, never a crash.
func Run(ds *vec.Dataset, opts Options) (*cluster.Result, Stats, error) {
	res, _, st, err := run(ds, opts, false)
	return res, st, err
}

// RunRetained is Run plus model retention: every successfully trained
// per-sub-cluster SVDD model (and every degradation event) is snapshotted
// and returned as a RetainedModel list whose Cluster fields reference the
// final compacted cluster ids of the result. The retained set is what the
// top-level Model artifact serializes.
func RunRetained(ds *vec.Dataset, opts Options) (*cluster.Result, []RetainedModel, Stats, error) {
	return run(ds, opts, true)
}

func run(ds *vec.Dataset, opts Options, retain bool) (res *cluster.Result, retained []RetainedModel, st Stats, err error) {
	var r *runner
	defer func() {
		if v := recover(); v != nil {
			res, retained, err = nil, nil, fault.AsWorkerPanic(v)
			if r != nil {
				st = r.stats
			}
		}
	}()
	if ds == nil {
		return nil, nil, Stats{}, ErrNilDataset
	}
	if err := opts.Validate(); err != nil {
		return nil, nil, Stats{}, err
	}
	if opts.LearnThreshold == 0 {
		opts.LearnThreshold = defaultLearnThresh
	}
	if opts.MaxSVDDTarget == 0 {
		opts.MaxSVDDTarget = defaultMaxSVDDTarget
	}
	buildCtx := opts.IndexBuilderCtx
	if buildCtx == nil {
		// The linear scan splits single queries across its workers, so it
		// takes Workers too: 1 stays fully sequential.
		buildCtx = index.Bind(index.NewLinear, opts.Workers)
	}

	parent := opts.Context
	if parent == nil {
		parent = context.Background()
	}
	start := time.Now()
	ctx := parent
	if opts.Budget.MaxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(parent, start.Add(opts.Budget.MaxDuration))
		defer cancel()
	}

	n := ds.Len()
	r = &runner{
		ds:         ds,
		opts:       opts,
		ctx:        ctx,
		parent:     parent,
		start:      start,
		labels:     make([]int32, n),
		clusterSet: unionfind.New(0),
		core:       make([]coreState, n),
		rng:        rand.New(rand.NewSource(opts.Seed)),
		retain:     retain,
	}
	for i := range r.labels {
		r.labels[i] = cluster.Unclassified
	}

	buildStart := time.Now()
	idx, buildErr := buildCtx(ctx, ds)
	r.stats.IndexBuild = time.Since(buildStart)
	if buildErr != nil {
		if perr := parent.Err(); perr != nil {
			return nil, nil, r.stats, perr
		}
		if opts.Budget.MaxDuration > 0 && ctx.Err() != nil {
			// The duration budget expired during index construction:
			// nothing was clustered, so the best-effort partial result is
			// "everything noise".
			_ = r.trip("duration")
			for i := range r.labels {
				r.labels[i] = cluster.Noise
			}
			return (&cluster.Result{Labels: r.labels}).Compact(), nil, r.stats, r.budgetErr
		}
		return nil, nil, r.stats, buildErr
	}
	r.idx = index.Batch(idx)
	r.workers = engine.ResolveWorkers(opts.Workers)

	if n == 0 {
		return &cluster.Result{Labels: r.labels}, nil, r.stats, nil
	}

	// Initialization sweep (Algorithm 2). Seed queries are inherently
	// sequential (each depends on the labels the previous expansion wrote);
	// the expansions they trigger run their rounds as query batches.
	var runErr error
	sweep := engine.StartPhase()
	for i := 0; i < n; i++ {
		if i%256 == 0 {
			if err := r.checkpoint(); err != nil {
				runErr = err
				break
			}
		}
		if r.labels[i] != cluster.Unclassified {
			continue
		}
		hood := r.rangeQuery(int32(i))
		if len(hood) < opts.MinPts {
			r.core[i] = coreNo
			r.labels[i] = cluster.Noise
			r.noiseIDs = append(r.noiseIDs, int32(i))
			r.noiseHoods = append(r.noiseHoods, append([]int32(nil), hood...))
			continue
		}
		r.core[i] = coreYes
		cid := r.clusterSet.Add()
		r.stats.Seeds++
		r.labels[i] = cid
		newClu := append(make([]int32, 0, len(hood)), int32(i))
		newClu = r.absorb(hood, cid, newClu)
		expand := engine.StartPhase()
		expandErr := r.svExpandCluster(newClu, cid)
		expand.Stop(&r.stats.Phases.Expand)
		if expandErr != nil {
			runErr = expandErr
			break
		}
	}
	sweep.Stop(&r.stats.Phases.Init)
	r.stats.Phases.Init -= r.stats.Phases.Expand // sweep time minus nested expansions
	if runErr != nil && !errors.Is(runErr, errBudget) {
		return nil, nil, r.stats, runErr
	}

	r.stats.NoiseList = len(r.noiseIDs)
	if runErr == nil {
		verify := engine.StartPhase()
		verifyErr := r.noiseVerification()
		verify.Stop(&r.stats.Phases.Verify)
		if verifyErr != nil {
			if !errors.Is(verifyErr, errBudget) {
				return nil, nil, r.stats, verifyErr
			}
			runErr = verifyErr
		}
	}

	// Canonicalize merged cluster ids into dense labels. Compact maps every
	// negative label — including points a tripped budget left Unclassified —
	// to Noise, so a partial result satisfies the same labeling invariants
	// as a complete one. The retained entries are remapped against the
	// canonicalized labels BEFORE Compact rewrites them in place.
	for i, l := range r.labels {
		if l >= 0 {
			r.labels[i] = r.clusterSet.Find(l)
		}
	}
	retained = r.finalizeRetained(r.labels)
	r.stats.RetainedModels = len(retained)
	res = (&cluster.Result{Labels: r.labels}).Compact()
	if runErr != nil {
		return res, retained, r.stats, r.budgetErr
	}
	return res, retained, r.stats, nil
}

// checkpoint is the per-round budget and cancellation gate. External
// cancellation wins over any budget limit; a fired limit is recorded once
// via trip and unwound with the errBudget sentinel.
func (r *runner) checkpoint() error {
	if err := r.parent.Err(); err != nil {
		return err
	}
	if fault.Error(fault.DeadlineFire) != nil {
		return r.trip("duration")
	}
	b := r.opts.Budget
	if !b.enabled() {
		return nil
	}
	if b.MaxDuration > 0 && r.ctx.Err() != nil {
		return r.trip("duration")
	}
	if b.MaxSVDDRounds > 0 && r.stats.SVDDTrainings >= b.MaxSVDDRounds {
		return r.trip("svdd-rounds")
	}
	if b.MaxRangeQueries > 0 && r.stats.RangeQueries+r.stats.RangeCounts >= b.MaxRangeQueries {
		return r.trip("range-queries")
	}
	return nil
}

// trip records the first budget limit that fired and returns the errBudget
// sentinel that unwinds the run to its partial-result finalization.
func (r *runner) trip(limit string) error {
	if r.budgetErr == nil {
		r.budgetErr = &BudgetExceededError{
			Limit:        limit,
			Elapsed:      time.Since(r.start),
			SVDDRounds:   r.stats.SVDDTrainings,
			RangeQueries: r.stats.RangeQueries + r.stats.RangeCounts,
		}
	}
	return errBudget
}

// queryErr classifies an error that surfaced from a query batch or an SVDD
// solve: an external cancellation is returned as the caller's context error,
// a deadline raced by the duration budget becomes a budget trip, anything
// else passes through unchanged.
func (r *runner) queryErr(err error) error {
	if err == nil {
		return nil
	}
	if perr := r.parent.Err(); perr != nil {
		return perr
	}
	if r.opts.Budget.MaxDuration > 0 && errors.Is(err, context.DeadlineExceeded) {
		return r.trip("duration")
	}
	return err
}

// rangeQuery materializes the ε-neighborhood of point id in ascending id
// order (shared buffer).
func (r *runner) rangeQuery(id int32) []int32 {
	r.stats.RangeQueries++
	r.buf = r.idx.RangeQuery(r.ds.Point(int(id)), r.opts.Eps, r.buf[:0])
	slices.Sort(r.buf)
	return r.buf
}

// expandRound range-queries every point of cand as one batch, marks
// each one core or not, and absorbs the neighborhoods of the core ones into
// cluster cid in query order, returning the newly labeled points.
func (r *runner) expandRound(cand []int32, cid int32) ([]int32, error) {
	hoods, err := r.idx.BatchRangeQuery(r.ctx, index.PointQueries(r.ds, cand), r.opts.Eps, r.workers, r.hoods)
	if err != nil {
		return nil, r.queryErr(err)
	}
	r.hoods = hoods
	r.stats.RangeQueries += int64(len(cand))
	var fresh []int32
	for qi, id := range cand {
		hood := hoods[qi]
		if len(hood) < r.opts.MinPts {
			r.core[id] = coreNo
			continue
		}
		r.core[id] = coreYes
		slices.Sort(hood)
		fresh = r.absorb(hood, cid, fresh)
	}
	return fresh, nil
}

// absorb labels every unclassified or noise point of hood with cid and
// appends it to fresh; a point another sub-cluster owns merges that
// sub-cluster into cid when it is a core point. hood must be sorted: the
// index leaves neighbor order unspecified, and the order in which points
// are absorbed decides the SVDD targets, so sorting is what keeps the
// output independent of the index backend.
func (r *runner) absorb(hood []int32, cid int32, fresh []int32) []int32 {
	for _, p := range hood {
		switch r.labels[p] {
		case cluster.Unclassified, cluster.Noise:
			r.labels[p] = cid
			fresh = append(fresh, p)
		default:
			r.maybeMerge(p, cid)
		}
	}
	return fresh
}

// isCore answers the core-point test with caching; counting queries stop at
// MinPts.
func (r *runner) isCore(id int32) bool {
	switch r.core[id] {
	case coreYes:
		return true
	case coreNo:
		return false
	}
	r.stats.RangeCounts++
	ok := r.idx.RangeCount(r.ds.Point(int(id)), r.opts.Eps, r.opts.MinPts) >= r.opts.MinPts
	if ok {
		r.core[id] = coreYes
	} else {
		r.core[id] = coreNo
	}
	return ok
}

// maybeMerge unites the cluster owning point j with cid when j is a core
// point (Lemma 3). Non-core overlap points stay where they are.
func (r *runner) maybeMerge(j, cid int32) {
	owner := r.labels[j]
	if owner < 0 || r.clusterSet.Same(owner, cid) {
		return
	}
	if r.isCore(j) {
		r.clusterSet.Union(owner, cid)
		r.stats.Merges++
	}
}

// target tracks one SVDD target point and its participation counter t_i.
type target struct {
	id    int32
	times int
}

// svExpandCluster is Algorithm 3, iteratively: train SVDD on the target
// set, range-query the core support vectors (as one engine batch per
// round), absorb their neighborhoods, and repeat until the sub-cluster
// stops growing. Returns the context's error when the run is cancelled
// mid-round.
func (r *runner) svExpandCluster(initial []int32, cid int32) error {
	targets := make([]target, 0, len(initial))
	for _, id := range initial {
		targets = append(targets, target{id: id})
	}

	for len(targets) > 0 {
		if err := r.checkpoint(); err != nil {
			return err
		}
		ids, times := r.sampleTargets(targets)
		model, err := r.trainSVDD(ids, times)
		if model != nil {
			r.stats.SVDDTrainings++
			r.stats.SVDDIterations += int64(model.Iterations)
		}
		if err != nil {
			switch {
			case errors.Is(err, svdd.ErrNotConverged),
				errors.Is(err, svdd.ErrDegenerateSigma),
				errors.Is(err, svdd.ErrAllSupportVectors):
				// Graceful degradation: the SVDD model for THIS sub-cluster
				// is unusable (or unreliable), so finish the sub-cluster with
				// exact range-query expansion from its current target set.
				// Other sub-clusters keep the support-vector fast path. The
				// event is retained (with the best-effort model when one
				// exists) so saved artifacts record which boundaries are
				// trustworthy.
				r.stats.Degraded++
				r.retainModel(cid, model, true)
				frontier := make([]int32, len(targets))
				for i, tg := range targets {
					frontier[i] = tg.id
				}
				return r.exactExpand(frontier, cid)
			case errors.Is(err, svdd.ErrEmptyTarget):
				return nil
			default:
				return r.queryErr(err)
			}
		}
		r.retainModel(cid, model, false)
		budget := r.svBudget(len(ids))
		svs := model.TopSupportVectors(budget)
		r.stats.SupportVectors += int64(len(svs))

		fresh, err := r.expandFrom(svs, cid, nil)
		if err != nil {
			return err
		}
		if len(fresh) == 0 {
			// Stall escalation: the ν budget may have trimmed exactly the
			// support vector that would have advanced the frontier (e.g. a
			// thin bridge). Retry once with the solver's full SV set before
			// declaring the sub-cluster closed — this happens at most once
			// per sub-cluster lifetime stall, so the amortized cost is
			// negligible while it removes most budget-induced splits.
			rest := model.TopSupportVectors(0)
			if len(rest) > len(svs) {
				r.stats.SupportVectors += int64(len(rest) - len(svs))
				fresh, err = r.expandFrom(rest, cid, svs)
				if err != nil {
					return err
				}
			}
			if len(fresh) == 0 {
				return nil
			}
		}
		targets = r.nextTargets(targets, fresh)
	}
	return nil
}

// expandFrom submits the round's core support vectors as one batch of
// ε-range queries and absorbs their neighborhoods into cluster cid,
// returning the newly labeled points. Support vectors present in skip are
// not re-queried.
//
// The batch is race-free and worker-count-invariant by construction: the
// query set is fixed before the batch (processing one support vector never
// flips the core state of another one in the same round, because support
// vectors belong to the expanding cluster while in-round core updates only
// touch points of *other* clusters), the queries themselves are pure reads,
// and the absorb/merge pass below consumes the results sequentially in
// query-index order — so labels and stats match the sequential run bit for
// bit.
func (r *runner) expandFrom(svs []int32, cid int32, skip []int32) ([]int32, error) {
	var skipSet map[int32]bool
	if len(skip) > 0 {
		skipSet = make(map[int32]bool, len(skip))
		for _, s := range skip {
			skipSet[s] = true
		}
	}
	cand := r.cand[:0]
	for _, sv := range svs {
		if skipSet[sv] || r.core[sv] == coreNo {
			continue
		}
		cand = append(cand, sv)
	}
	r.cand = cand
	if len(cand) == 0 {
		return nil, nil
	}
	return r.expandRound(cand, cid)
}

// exactExpand is the degradation fallback: classic DBSCAN frontier
// expansion over the sub-cluster, one ε-range query per member instead of
// per core support vector. It produces exactly the density-reachable set of
// the frontier (Lemma 1 semantics without the SV shortcut), so a degraded
// sub-cluster differs from the SV-expanded one only where the SVDD budget
// would have split a thin bridge — never by mislabeling.
func (r *runner) exactExpand(frontier []int32, cid int32) error {
	for len(frontier) > 0 {
		if err := r.checkpoint(); err != nil {
			return err
		}
		cand := make([]int32, 0, len(frontier))
		for _, id := range frontier {
			if r.core[id] != coreNo {
				cand = append(cand, id)
			}
		}
		if len(cand) == 0 {
			return nil
		}
		fresh, err := r.expandRound(cand, cid)
		if err != nil {
			return err
		}
		frontier = fresh
	}
	return nil
}

// nextTargets applies incremental learning (Section IV-B1): bump every
// participation counter, drop points beyond the threshold T, then append
// the freshly absorbed points with t = 0.
func (r *runner) nextTargets(targets []target, fresh []int32) []target {
	out := targets[:0]
	for _, tg := range targets {
		tg.times++
		if r.opts.LearnThreshold >= 0 && tg.times > r.opts.LearnThreshold {
			continue
		}
		out = append(out, tg)
	}
	for _, id := range fresh {
		out = append(out, target{id: id})
	}
	return out
}

// sampleTargets extracts the ids for SVDD training and their participation
// counts t_i, deterministically subsampling when the target set exceeds
// the cap.
func (r *runner) sampleTargets(targets []target) (ids []int32, times []int) {
	k, stride := len(targets), 1.0
	if capN := r.opts.MaxSVDDTarget; k > capN {
		k, stride = capN, float64(len(targets))/float64(capN)
	}
	ids, times = make([]int32, k), make([]int, k)
	for i := range k {
		tg := targets[int(float64(i)*stride)]
		ids[i], times[i] = tg.id, tg.times
	}
	return ids, times
}

// svBudget returns the number of support vectors whose ε-neighborhoods are
// queried per training round: the ν budget of Section IV-C (ν bounds the
// SV fraction from below, and the paper controls the query cost — and hence
// the accuracy/efficiency trade-off of Figure 8 — through it), with 50%
// slack because solver solutions carry slightly more mass than the bound.
func (r *runner) svBudget(targetSize int) int {
	if r.opts.NuMin {
		// DBSVEC_min deliberately runs at the single-vector minimum.
		return 1
	}
	nu := r.effectiveNu(targetSize)
	k := int(math.Ceil(1.5 * nu * float64(targetSize)))
	// Floor the budget so low-dimensional runs (where ν*·ñ is tiny) still
	// advance the frontier by several neighborhoods per round.
	if k < 6 {
		k = 6
	}
	return k
}

// effectiveNu resolves the ν actually used for a target of the given size.
func (r *runner) effectiveNu(targetSize int) float64 {
	switch {
	case r.opts.NuMin:
		return 1 / float64(targetSize)
	case r.opts.Nu > 0:
		return r.opts.Nu
	default:
		return svdd.NuStar(r.ds.Dim(), r.opts.MinPts, targetSize)
	}
}

// trainSVDD fits the (weighted) SVDD model for the current target ids,
// whose participation counts are times. Every round trains afresh
// (Algorithm 3).
func (r *runner) trainSVDD(ids []int32, times []int) (*svdd.Model, error) {
	cfg := svdd.Config{
		Nu:      r.effectiveNu(len(ids)),
		Workers: r.workers,
		Context: r.ctx,
	}

	if r.opts.RandomKernel {
		cfg.Sigma = r.randomSigma(ids)
	}

	if !r.opts.DisableWeights {
		// Adaptive penalty weights (Eq. 7): the SVDD solver computes them
		// from its own kernel matrix; we supply each point's participation
		// count t_i. Fresh points (t = 0) far from the kernel centroid get
		// the smallest weights and the loosest multiplier caps — exactly
		// the points the paper wants selected as support vectors.
		cfg.Times = times
	}
	model, err := svdd.Train(r.ds, ids, cfg)
	if model != nil {
		r.stats.SVDD.Add(model.Times)
	}
	return model, err
}

// randomSigma draws σ uniformly from [min,max] pairwise distance of the
// target (the DBSVEC\OK ablation). Pairwise extremes are estimated from a
// bounded sample to stay subquadratic.
func (r *runner) randomSigma(ids []int32) float64 {
	sample := ids
	if len(sample) > 256 {
		sample = sample[:256]
	}
	minD, maxD := math.Inf(1), 0.0
	for i := 0; i < len(sample); i++ {
		for j := i + 1; j < len(sample); j++ {
			d := r.ds.Dist(int(sample[i]), int(sample[j]))
			if d < minD && d > 0 {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	if math.IsInf(minD, 1) || maxD <= 0 {
		return 1e-9
	}
	return minD + r.rng.Float64()*(maxD-minD)
}
