// Package svdd implements Support Vector Domain Description (Tax & Duin,
// 1999) with the three DBSVEC enhancements from Section IV of the paper:
//
//  1. adaptive per-point penalty weights ω_i that cap each Lagrange
//     multiplier at ω_i·C (Eq. 8–11), steering support vectors toward
//     fresh points on the sub-cluster boundary;
//  2. the ν parameterization C = 1/(ν·ñ) with the adaptive choice ν*
//     (Eq. 20);
//  3. the kernel width lower bound σ = r/√2 that avoids overfitting
//     (Section IV-B2).
//
// The weighted dual (Eq. 11) is solved with a hand-rolled Sequential
// Minimal Optimization (SMO) solver: with the Gaussian kernel the dual is
//
//	minimize    αᵀKα
//	subject to  0 ≤ α_i ≤ ω_i·C,  Σ α_i = 1,
//
// optimized by repeatedly selecting the maximal-violating pair and moving
// mass between its two multipliers in closed form, starting every training
// from the greedy cap-respecting fill. The training fast path adds two
// layers on top (see internal/svdd/README.md and the "SVDD solver
// internals" section of DESIGN.md): the dense kernel fill of small targets
// and the pivot-row batch of large ones fan out across a worker pool, and a
// shrinking heuristic drops bound-pinned multipliers from the working set
// (with a final full-pass KKT re-check so converged models are unchanged).
// Each SMO iteration is one fused pass over the gradients (dist.SMOPass).
package svdd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"dbsvec/internal/dist"
	"dbsvec/internal/engine"
	"dbsvec/internal/fault"
	"dbsvec/internal/vec"
)

// Config controls one SVDD training run.
type Config struct {
	// Nu in (0,1]: upper bound on the fraction of boundary support vectors
	// and lower bound on the fraction of support vectors (Schölkopf et al.).
	// The adaptive choice of Eq. 20 is NuStar; the caller resolves it.
	Nu float64
	// Sigma is the Gaussian kernel RMS width. When 0 the σ = r/√2 rule is
	// applied to the target set.
	Sigma float64
	// Times, when non-nil, activates the adaptive penalty weights of Eq. 7
	// computed internally (reusing the kernel matrix, which is cheaper than
	// a separate KernelDistances pass): ω_i = λ^{Times[i]}·(1 − D_i/max D)
	// with the memory factor λ = 1.5. nil means uniform weights of 1 (plain
	// SVDD).
	Times []int
	// MaxIter caps SMO iterations; 0 means 200·ñ + 10000.
	MaxIter int
	// Workers fans the dense fill and the pivot-row batch of the kernel
	// matrix across this many goroutines on engine.For, whose workers write
	// disjoint rows (bit-identical to the serial fill for every value). <= 1
	// fills on the calling goroutine.
	Workers int
	// Context, when non-nil, allows cancelling a long training: the solver
	// checks it every ~1k SMO iterations and Train returns ctx's error with
	// the partial model discarded. nil trainings run to completion.
	Context context.Context
}

// Model is a trained SVDD description of a target set.
type Model struct {
	// IDs are the global dataset ids of the target points, in training
	// order.
	IDs []int32
	// Alpha are the Lagrange multipliers aligned with IDs.
	Alpha []float64
	// Upper are the per-point caps ω_i·C aligned with IDs.
	Upper []float64
	// Sigma is the kernel width used.
	Sigma float64
	// Nu is the penalty factor the training used (Config.Nu).
	Nu float64
	// R2 is the squared sphere radius in feature space.
	R2 float64
	// Iterations is the number of SMO pair updates performed.
	Iterations int
	// Converged reports whether the solver reached the KKT tolerance;
	// false means MaxIter was exhausted first and the model is the best
	// iterate found (Train additionally returns ErrNotConverged so callers
	// cannot mistake a truncated model for a converged one).
	Converged bool
	// Times is the per-stage wall-clock of this training (kernel fill /
	// SMO solve / radius extraction), for the run statistics; its
	// NotConverged counter records whether this training hit MaxIter.
	Times engine.SVDDTimes

	ds       *vec.Dataset
	alphaDot float64   // αᵀKα, cached for Eval
	svScore  []float64 // feature-space distance² to the center, per target
	// detached marks models rebuilt from a Snapshot: ds then holds only the
	// support-vector coordinates in IDs order (row i = IDs[i]), not the full
	// training dataset addressed by global id.
	detached bool
}

// Errors returned by Train. ErrNotConverged and ErrAllSupportVectors are
// *degradation* signals: they come WITH a usable model, and DBSVEC's core
// responds by falling back to exact range-query expansion for the affected
// sub-cluster rather than failing the run.
var (
	ErrEmptyTarget = errors.New("svdd: empty target set")
	ErrBadNu       = errors.New("svdd: nu must be in (0,1]")
	// ErrNotConverged reports that the SMO solver exhausted MaxIter before
	// reaching the KKT tolerance. The returned model is the best iterate
	// (feasible: box constraints and Σα = 1 hold at every iterate) — usable,
	// but its support-vector set may be unreliable.
	ErrNotConverged = errors.New("svdd: solver did not converge within the iteration cap")
	// ErrDegenerateSigma reports that the σ = r/√2 rule (Section IV-B2)
	// collapsed to its numeric floor because every target point coincides;
	// the Gaussian kernel carries no geometry at that width, so no model is
	// returned.
	ErrDegenerateSigma = errors.New("svdd: degenerate kernel width (coincident target set)")
	// ErrAllSupportVectors reports the blowup regime where every target
	// point became a support vector despite a small ν (ν bounds the SV
	// fraction from below, not above — Section IV-C): the sphere describes
	// nothing, and querying "the boundary" would query everything. Only
	// flagged for ν ≤ allSVNuCap on targets of allSVMinTarget points or
	// more; high-ν configurations (e.g. the ν → 1 regime of Eq. 20) make
	// every point a bounded SV by design and are not an error.
	ErrAllSupportVectors = errors.New("svdd: every target point became a support vector")
)

const (
	// degenerateSigmaCutoff flags σ values at the SigmaLowerBound floor
	// (1e-9, reached only when all target points coincide).
	degenerateSigmaCutoff = 1e-8
	// allSVNuCap and allSVMinTarget gate ErrAllSupportVectors; see above.
	allSVNuCap     = 0.25
	allSVMinTarget = 32
)

const (
	// lambda is the memory factor λ > 1 of the adaptive weights (Eq. 7).
	lambda = 1.5
	// tol is the KKT violation tolerance at which the SMO solve stops.
	tol = 1e-4
	// svThreshold: multipliers below this fraction of the uniform value are
	// treated as zero when extracting support vectors.
	svThreshold = 1e-8
)

// Train fits a (weighted) SVDD model to the target points ids of ds.
//
// Failure contract: ErrNotConverged and ErrAllSupportVectors are returned
// *with* a usable model; every other error returns a nil model. A panic
// anywhere inside training (including worker goroutines of the parallel
// kernel fill) is contained and returned as a *fault.WorkerPanicError.
func Train(ds *vec.Dataset, ids []int32, cfg Config) (*Model, error) {
	return train(ds, ids, cfg, newKernelMatrix, (*Model).solveSMO, true)
}

// solver is the SMO solve a training runs: solveSMO, or in the package's
// tests the two-pass loop it replaced, which it must match bit for bit.
type solver func(m *Model, ctx context.Context, km *kernelMatrix, s *smoScratch, maxIter int, shrink bool) (bool, error)

// train is Train with the kernel-matrix constructor, the solver and the
// shrinking heuristic as parameters, so package tests and benchmarks can run
// a training on a fully dense matrix, with a reference solver, or with the
// full scan over every multiplier as the reference the shrinking solver must
// match.
func train(ds *vec.Dataset, ids []int32, cfg Config, build func(*vec.Dataset, []int32, float64, int) *kernelMatrix, solve solver, shrink bool) (model *Model, err error) {
	defer func() {
		if v := recover(); v != nil {
			model, err = nil, fault.AsWorkerPanic(v)
		}
	}()
	n := len(ids)
	if n == 0 {
		return nil, ErrEmptyTarget
	}
	nu := cfg.Nu
	if !(nu > 0 && nu <= 1) {
		return nil, fmt.Errorf("%w: %g", ErrBadNu, nu)
	}
	if ctx := cfg.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	sigma := cfg.Sigma
	if sigma == 0 {
		sigma = SigmaLowerBound(ds, ids)
	}
	maxIter := cfg.MaxIter
	if maxIter == 0 {
		maxIter = 200*n + 10000
	}
	if fault.Armed(fault.SolverNonConverge) {
		// Deterministic injection: force MaxIter exhaustion after a single
		// pair update so the ErrNotConverged path runs without a
		// pathological input.
		maxIter = 1
	}

	m := &Model{
		IDs:   ids,
		Alpha: make([]float64, n),
		Sigma: sigma,
		Nu:    nu,
		ds:    ds,
	}
	if n == 1 {
		m.Upper = []float64{1}
		m.Alpha[0] = 1
		m.R2 = 0
		m.alphaDot = 1
		m.Converged = true
		return m, nil
	}
	if sigma < degenerateSigmaCutoff {
		return nil, fmt.Errorf("%w: sigma %g", ErrDegenerateSigma, sigma)
	}

	fill := engine.StartPhase()
	km := build(ds, ids, sigma, cfg.Workers)

	var weights []float64
	if cfg.Times != nil {
		weights = adaptiveWeights(km, cfg.Times, cfg.Workers)
	}

	// Per-point upper bounds u_i = ω_i·C with C = 1/(ν·ñ). Guard
	// feasibility: Σu must exceed 1 for Σα = 1 to be reachable; rescale
	// degenerate weight vectors and floor individual weights so every point
	// stays eligible.
	c := 1 / (nu * float64(n))
	upper := make([]float64, n)
	var sumU float64
	for i := 0; i < n; i++ {
		w := 1.0
		if weights != nil {
			w = weights[i]
			if w < 1e-3 {
				w = 1e-3
			}
		}
		upper[i] = w * c
		sumU += upper[i]
	}
	if sumU < 1.0000001 {
		scale := 1.05 / sumU
		for i := range upper {
			upper[i] *= scale
		}
	}
	m.Upper = upper
	fill.Stop(&m.Times.Fill)

	s := getScratch(n)
	defer scratchPool.Put(s)
	phase := engine.StartPhase()
	converged, solveErr := solve(m, cfg.Context, km, s, maxIter, shrink)
	phase.Stop(&m.Times.Solve)
	if solveErr != nil {
		releaseMatrix(km)
		return nil, solveErr
	}
	m.Converged = converged

	phase = engine.StartPhase()
	m.finish(km, s.f)
	phase.Stop(&m.Times.Finish)
	releaseMatrix(km)

	if !m.Converged {
		m.Times.NotConverged = 1
		return m, fmt.Errorf("%w: %d iterations", ErrNotConverged, m.Iterations)
	}
	if nu <= allSVNuCap && n >= allSVMinTarget {
		sv := 0
		for _, a := range m.Alpha {
			if a > svThreshold {
				sv++
			}
		}
		if sv == n {
			return m, fmt.Errorf("%w: %d of %d targets (nu=%g)", ErrAllSupportVectors, sv, n, nu)
		}
	}
	return m, nil
}

// adaptiveWeights evaluates Eq. 7 from a prepared kernel matrix. For small
// targets (ñ <= weightsExactCap, stored dense) the kernel distance
// D_i = c + 1 − (2/ñ)·Σ_j K_ij falls out of the exact row sums. For larger
// targets it is estimated from a fixed set of evenly spaced pivot rows:
// D̂_i = ĉ + 1 − (2/m)·Σ_{p∈pivots} K_ip. Only the *ranking* of distances
// matters for the weights (they are normalized by the maximum), so the
// estimate preserves the behaviour at a fraction of the O(ñ²) cost — this
// keeps each SVDD training linear in ñ as the paper's cost analysis
// assumes. The pivot rows are the one set of lazy rows known before the
// solver starts, so they are computed as a single batch across workers.
//
// Both sums run column-wise, one dist.Axpy(1, row, sums) per row: the
// multiply by 1 is exact, and each entry adds its terms in row order. For
// the pivot sums that is the order of a per-entry loop; for the exact row
// sums it is too, because the dense matrix is a bitwise mirror, so column i
// of rows 0…ñ−1 holds row i's entries in j order.
func adaptiveWeights(km *kernelMatrix, times []int, workers int) []float64 {
	n := km.n
	dists := make([]float64, n) // the kernel sums, then the distances
	if n <= weightsExactCap {
		for j := 0; j < n; j++ {
			dist.Axpy(1, km.row(j), dists)
		}
		var double float64
		for _, s := range dists {
			double += s
		}
		nf := float64(n)
		c := double / (nf * nf)
		for i, s := range dists {
			dists[i] = c + 1 - 2*s/nf
		}
	} else {
		const pivots = 96
		m := pivots
		if m > n {
			m = n
		}
		stride := float64(n) / float64(m)
		pivotIdx := make([]int, m)
		for p := 0; p < m; p++ {
			pivotIdx[p] = int(float64(p) * stride)
		}
		km.fillRows(pivotIdx, workers)
		var double float64
		for _, p := range pivotIdx {
			row := km.row(p)
			dist.Axpy(1, row, dists)
			for _, q := range pivotIdx {
				double += row[q]
			}
		}
		mf := float64(m)
		c := double / (mf * mf)
		for i, s := range dists {
			dists[i] = c + 1 - 2*s/mf
		}
	}
	maxD := 0.0
	for i, d := range dists {
		if d < 0 {
			d = 0
			dists[i] = 0
		}
		if d > maxD {
			maxD = d
		}
	}
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		base := 1.0
		if maxD > 0 {
			base = 1 - dists[i]/maxD
		}
		w[i] = math.Pow(lambda, float64(times[i])) * base
	}
	return w
}

// initAlpha establishes the feasible starting point: the greedy fill that
// distributes the unit mass in target order, each multiplier up to its cap.
func initAlpha(alpha, upper []float64) {
	remaining := 1.0
	for i := 0; i < len(alpha) && remaining > 0; i++ {
		a := math.Min(upper[i], remaining)
		alpha[i] = a
		remaining -= a
	}
}

// shrinkPeriod is the number of SMO iterations between working-set pruning
// passes. Pruning costs one scan over the multipliers plus a selection pass,
// so it must be amortized over enough iterations; too long and the solver
// keeps selecting among multipliers that have been pinned at their bounds
// for hundreds of iterations.
const shrinkPeriod = 64

// smoScratch is one training's O(ñ) solver state, pooled like the kernel
// rows because DBSVEC trains hundreds of similar-sized targets per run: the
// gradient f (reused by finish), the gradient reconstruction buffer g, the
// eligibility biases pu and pd that dist.SMOPass selects with, and the
// shrinking heuristic's active mask.
type smoScratch struct {
	f, g, pu, pd []float64
	active       []bool
}

var scratchPool sync.Pool

// getScratch returns a pooled scratch sized for n multipliers; its contents
// are stale, and every user initializes what it reads.
func getScratch(n int) *smoScratch {
	s, _ := scratchPool.Get().(*smoScratch)
	if s == nil {
		s = new(smoScratch)
	}
	s.f = slices.Grow(s.f[:0], n)[:n]
	s.g = slices.Grow(s.g[:0], n)[:n]
	s.pu = slices.Grow(s.pu[:0], n)[:n]
	s.pd = slices.Grow(s.pd[:0], n)[:n]
	s.active = slices.Grow(s.active[:0], n)[:n]
	return s
}

// setBias sets multiplier k's eligibility biases from α_k, u_k and its
// membership of the working set: pu[k] = 0 when α_k may grow (the up side),
// pd[k] = 0 when it may shrink (the down side), and ±Inf otherwise.
func (s *smoScratch) setBias(k int, alpha, upper []float64) {
	s.pu[k], s.pd[k] = math.Inf(1), math.Inf(-1)
	if !s.active[k] {
		return
	}
	if alpha[k] < upper[k]-svThreshold {
		s.pu[k] = 0
	}
	if alpha[k] > svThreshold {
		s.pd[k] = 0
	}
}

// solveSMO runs SMO on the dual with first-order (maximal violating pair)
// working-set selection, in one pass over the ñ multipliers per iteration:
// dist.SMOPass adds the step's update to the gradient and, in the same loop,
// selects the next pair. The pair is the up candidate, the smallest gradient
// among the points that can grow, and the maximal-violation down candidate,
// the largest among those that can shrink, the first index winning ties.
// Which points can move is held in the biases pu and pd (setBias); they
// change only at the step's two multipliers and when shrinking prunes or
// restores multipliers.
//
// With shrink set, every shrinkPeriod iterations the multipliers pinned at a
// bound that cannot currently form a tol-violating pair (α_i = 0 with f_i
// within tol of the maximal gradient, or α_i = u_i with f_i within tol of the
// minimal one) leave the working set: their biases go to ±Inf, so they can
// no longer be selected. Shrinking narrows eligibility, not the pass length:
// the pass keeps running over all ñ entries, and the gradients of inactive
// multipliers may drift from their exact sums. When the working set
// converges, those gradients are reconstructed exactly and a full-pass KKT
// re-check runs over all ñ points; only if that passes is the model declared
// converged, so shrinking never changes the KKT conditions a converged model
// satisfies.
//
// The returned bool reports convergence: false means maxIter was exhausted
// and the current iterate is the best found. A non-nil ctx is polled every
// 1024 iterations; on cancellation the solve aborts with ctx's error.
func (m *Model) solveSMO(ctx context.Context, km *kernelMatrix, s *smoScratch, maxIter int, shrink bool) (bool, error) {
	alpha := m.Alpha
	upper := m.Upper
	f, pu, pd, active := s.f, s.pu, s.pd, s.active

	initAlpha(alpha, upper)

	// f_i = Σ_j α_j K_ij maintained incrementally. The gradient of αᵀKα is
	// 2f; SMO moves mass from the max-gradient "down" candidate to the
	// min-gradient "up" candidate.
	clear(f)
	for j, aj := range alpha {
		if aj != 0 {
			dist.Axpy(aj, km.row(j), f)
		}
	}
	for k := range active {
		active[k] = true
		s.setBias(k, alpha, upper)
	}
	up, down := dist.SMOSelect(f, pu, pd)
	shrunk := false
	sincePrune := 0

	// unshrink brings every excluded multiplier back: gradients of the
	// inactive points are reconstructed and the working set reset to the
	// full target, so the next selection checks the full KKT conditions.
	unshrink := func() {
		reconstructGradient(km, alpha, f, s.g, active)
		for k := range active {
			active[k] = true
			s.setBias(k, alpha, upper)
		}
		up, down = dist.SMOSelect(f, pu, pd)
		shrunk = false
		sincePrune = 0
	}

	for iter := 0; iter < maxIter; iter++ {
		if ctx != nil && iter&1023 == 0 {
			if err := ctx.Err(); err != nil {
				m.Iterations = iter
				return false, err
			}
		}
		if up < 0 || down < 0 || f[down]-f[up] < tol {
			if !shrunk {
				m.Iterations = iter
				return true, nil
			}
			// Final full-pass KKT re-check: bring the gradients of the
			// shrunk multipliers up to date, reactivate everything and
			// re-run the selection. A converged verdict is therefore always
			// issued against the full KKT conditions.
			unshrink()
			continue
		}
		i, j := up, down
		upVal, downVal := f[i], f[j]
		// Closed-form step: minimize along α_i += Δ, α_j -= Δ.
		eta := 2 - 2*km.at(i, j) // K_ii + K_jj − 2K_ij with Gaussian diag 1
		var delta float64
		if eta > 1e-12 {
			delta = (downVal - upVal) / eta
		} else {
			// Degenerate direction (duplicate points): move as far as the
			// box allows; the objective is linear with negative slope.
			delta = math.Inf(1)
		}
		if maxStep := upper[i] - alpha[i]; delta > maxStep {
			delta = maxStep
		}
		if delta > alpha[j] {
			delta = alpha[j]
		}
		if delta <= 0 {
			if !shrunk {
				m.Iterations = iter
				return true, nil
			}
			// Numerically stuck pair inside a shrunk working set: run the
			// same full re-check as the converged path — the full set may
			// offer a pair that can still move.
			unshrink()
			continue
		}
		alpha[i] += delta
		alpha[j] -= delta
		s.setBias(i, alpha, upper)
		s.setBias(j, alpha, upper)
		up, down = dist.SMOPass(f, km.row(i), km.row(j), pu, pd, delta)
		m.Iterations = iter + 1

		if !shrink {
			continue
		}
		sincePrune++
		if sincePrune < shrinkPeriod {
			continue
		}
		sincePrune = 0
		// Prune multipliers pinned at a bound that cannot currently form a
		// violating pair: at the lower bound they could only serve as the
		// up side, which needs downVal − f_i ≥ tol; at the upper bound only
		// as the down side, needing f_i − upVal ≥ tol. The extremes are the
		// pre-step selection values — a conservative snapshot, corrected by
		// the full re-check at convergence. The pass's selection may have
		// picked a pruned multiplier, so it runs again.
		for k, on := range active {
			if !on {
				continue
			}
			atLower := alpha[k] <= svThreshold
			atUpper := alpha[k] >= upper[k]-svThreshold
			if (atLower && downVal-f[k] < tol) || (atUpper && f[k]-upVal < tol) {
				active[k] = false
				pu[k], pd[k] = math.Inf(1), math.Inf(-1)
				shrunk = true
			}
		}
		up, down = dist.SMOSelect(f, pu, pd)
	}
	return false, nil
}

// reconstructGradient recomputes f_i = Σ_j α_j K_ij exactly for every
// inactive multiplier; the active ones keep their incremental values. The
// sums run over all ñ entries into the scratch g, one dist.Axpy per support
// vector row, and only the inactive entries are copied into f: each is
// 0 + α_j·K_ij added in j order, the sum a per-entry loop forms. Paid once
// per unshrink, not per iteration.
func reconstructGradient(km *kernelMatrix, alpha, f, g []float64, active []bool) {
	clear(g)
	for j, aj := range alpha {
		if aj != 0 {
			dist.Axpy(aj, km.row(j), g)
		}
	}
	for k, on := range active {
		if !on {
			f[k] = g[k]
		}
	}
}

// finish computes αᵀKα and the radius R² from the normal support vectors,
// with f (length ñ, contents stale) as the scratch for Kα.
func (m *Model) finish(km *kernelMatrix, f []float64) {
	n := len(m.IDs)
	var dot float64
	clear(f)
	for j, aj := range m.Alpha {
		if aj <= svThreshold {
			continue
		}
		dist.Axpy(aj, km.row(j), f)
	}
	for i := 0; i < n; i++ {
		dot += m.Alpha[i] * f[i]
	}
	m.alphaDot = dot

	// R² from NSVs (0 < α < upper): feature-space distance of an on-sphere
	// point to the center. Fall back to the max over all SVs when every SV
	// sits at its bound. The per-SV distances are kept as boundary scores
	// for TopSupportVectors.
	m.svScore = make([]float64, n)
	var sum float64
	var count int
	var maxAny float64
	for i := 0; i < n; i++ {
		if m.Alpha[i] <= svThreshold {
			continue
		}
		d := 1 - 2*f[i] + dot
		m.svScore[i] = d
		if d > maxAny {
			maxAny = d
		}
		if m.Alpha[i] < m.Upper[i]-svThreshold {
			sum += d
			count++
		}
	}
	if count > 0 {
		m.R2 = sum / float64(count)
	} else {
		m.R2 = maxAny
	}
}

// SupportVectors returns the global ids of all support vectors (α_i > 0).
func (m *Model) SupportVectors() []int32 {
	var out []int32
	for i, a := range m.Alpha {
		if a > svThreshold {
			out = append(out, m.IDs[i])
		}
	}
	return out
}

// TopSupportVectors returns the global ids of the (at most) k support
// vectors farthest from the sphere center in feature space — the
// boundary-most points, which the adaptive weights (Eq. 7) deliberately
// push outside the sphere. DBSVEC uses this to keep the number of range
// queries per training at the ν budget (Section IV-C: ν is a lower bound on
// the SV fraction, and the paper controls the query cost through it).
// k <= 0 returns every support vector.
func (m *Model) TopSupportVectors(k int) []int32 {
	type sv struct {
		id    int32
		score float64
	}
	var all []sv
	for i, a := range m.Alpha {
		if a > svThreshold {
			score := 0.0
			if m.svScore != nil {
				score = m.svScore[i]
			}
			all = append(all, sv{id: m.IDs[i], score: score})
		}
	}
	if k <= 0 || len(all) <= k {
		out := make([]int32, len(all))
		for i, s := range all {
			out[i] = s.id
		}
		return out
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		return all[a].id < all[b].id // deterministic tie break
	})
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}

// BoundedSupportVectors returns the global ids of boundary support vectors
// (α_i at its cap, i.e. points on or outside the sphere). Detached models do
// not carry the per-point caps and return nil.
func (m *Model) BoundedSupportVectors() []int32 {
	if m.Upper == nil {
		return nil
	}
	var out []int32
	for i, a := range m.Alpha {
		if a >= m.Upper[i]-svThreshold {
			out = append(out, m.IDs[i])
		}
	}
	return out
}

// point returns the coordinates of target i: addressed by global id on a
// training-attached model, by target position on a detached one.
func (m *Model) point(i int) []float64 {
	if m.detached {
		return m.ds.Point(i)
	}
	return m.ds.Point(int(m.IDs[i]))
}

// Eval computes the discrimination value F(x) − R² of Eq. 12 for an
// arbitrary point: negative or zero inside the sphere, positive outside.
func (m *Model) Eval(x []float64) float64 {
	gamma := 1 / (2 * m.Sigma * m.Sigma)
	var s float64
	for i, a := range m.Alpha {
		if a <= svThreshold {
			continue
		}
		s += a * math.Exp(-dist.SqDist(m.point(i), x)*gamma)
	}
	return 1 - 2*s + m.alphaDot - m.R2
}

// ObjectiveValue returns the dual objective αᵀKα at the trained solution —
// the quantity SMO minimizes. Differential tests compare it between the
// shrinking solver and the full-scan reference, which must agree up to the
// convergence tolerance.
func (m *Model) ObjectiveValue() float64 { return m.alphaDot }

// SumAlpha returns Σα (1 up to solver tolerance); exposed for tests.
func (m *Model) SumAlpha() float64 {
	var s float64
	for _, a := range m.Alpha {
		s += a
	}
	return s
}
