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
// mass between its two multipliers in closed form. The training fast path
// adds two layers on top (see internal/svdd/README.md and the "SVDD
// solver internals" section of DESIGN.md): the dense kernel fill fans out
// across a worker pool, and a shrinking heuristic drops bound-pinned
// multipliers from the working set (with a final full-pass KKT re-check so
// converged models are unchanged). Config.WarmAlpha seeds the solver from
// saved multipliers for warm restarts.
package svdd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"dbsvec/internal/engine"
	"dbsvec/internal/fault"
	"dbsvec/internal/vec"
)

// Config controls one SVDD training run.
type Config struct {
	// Nu in (0,1]: upper bound on the fraction of boundary support vectors
	// and lower bound on the fraction of support vectors (Schölkopf et al.).
	// When 0, ν* from Eq. 20 requires Dim and MinPts below.
	Nu float64
	// Sigma is the Gaussian kernel RMS width. When 0 the σ = r/√2 rule is
	// applied to the target set.
	Sigma float64
	// Weights are the penalty weights ω_i aligned with the target ids; nil
	// means uniform weights of 1 (plain SVDD).
	Weights []float64
	// Times, when non-nil, activates the adaptive penalty weights of Eq. 7
	// computed internally (reusing the kernel matrix, which is cheaper than
	// a separate KernelDistances pass): ω_i = λ^{Times[i]}·(1 − D_i/max D)
	// with λ = Lambda. Takes precedence over Weights.
	Times []int
	// Lambda is the memory factor λ > 1 used with Times; 0 selects 1.5.
	Lambda float64
	// Dim and MinPts feed the ν* rule when Nu == 0.
	Dim    int
	MinPts int
	// Tol is the KKT violation tolerance; 0 means 1e-4.
	Tol float64
	// MaxIter caps SMO iterations; 0 means 200·ñ + 10000.
	MaxIter int
	// SecondOrder switches working-set selection from the maximal-violating
	// pair to libsvm-style second-order selection (WSS2): the up candidate
	// is chosen by gradient and the down candidate by the largest predicted
	// objective decrease. Usually converges in fewer iterations at a higher
	// per-iteration cost.
	SecondOrder bool
	// Workers fans the dense kernel-matrix fill across this many goroutines
	// with deterministic row-range partitioning (bit-identical to the
	// serial fill for every value). <= 1 fills on the calling goroutine.
	Workers int
	// WarmAlpha, when non-nil, warm-starts the solver from these Lagrange
	// multipliers (aligned with the target ids; new points carry 0). The
	// values are clamped into [0, ω_i·C] and renormalized to Σα = 1, so any
	// previous round's multipliers are a valid start. nil cold-starts with
	// the greedy cap-respecting fill.
	WarmAlpha []float64
	// NoShrink disables the shrinking working-set heuristic, restoring the
	// full scan over every multiplier each iteration. Kept for A/B
	// benchmarking and differential tests: converged models are the same
	// either way, because shrinking always ends with a full-pass KKT
	// re-check.
	NoShrink bool
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
	// Nu is the penalty factor the training actually used (Config.Nu, or
	// the adaptive ν* of Eq. 20 when that was 0).
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
	// SMO solve / radius extraction), for the engine's run statistics; its
	// Rounds/NotConverged counters record this training's outcome.
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
	defaultTol = 1e-4
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
func Train(ds *vec.Dataset, ids []int32, cfg Config) (model *Model, err error) {
	defer func() {
		if v := recover(); v != nil {
			model, err = nil, fault.AsWorkerPanic(v)
		}
	}()
	n := len(ids)
	if n == 0 {
		return nil, ErrEmptyTarget
	}
	if cfg.Nu < 0 || cfg.Nu > 1 {
		return nil, fmt.Errorf("%w: %g", ErrBadNu, cfg.Nu)
	}
	if cfg.WarmAlpha != nil && len(cfg.WarmAlpha) != n {
		return nil, fmt.Errorf("svdd: warm alphas length %d does not match target size %d", len(cfg.WarmAlpha), n)
	}
	if ctx := cfg.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	nu := cfg.Nu
	if nu == 0 {
		nu = NuStar(cfg.Dim, cfg.MinPts, n)
	}
	sigma := cfg.Sigma
	if sigma == 0 {
		sigma = SigmaLowerBound(ds, ids)
	}
	tol := cfg.Tol
	if tol == 0 {
		tol = defaultTol
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
	m.Times.Rounds = 1
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
	km := newKernelMatrix(ds, ids, sigma, cfg.Workers)

	weights := cfg.Weights
	if cfg.Times != nil {
		lambda := cfg.Lambda
		if lambda == 0 {
			lambda = 1.5
		}
		weights = adaptiveWeights(km, cfg.Times, lambda)
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

	solve := engine.StartPhase()
	converged, solveErr := m.solveSMO(cfg.Context, km, tol, maxIter, cfg.SecondOrder, !cfg.NoShrink, cfg.WarmAlpha)
	solve.Stop(&m.Times.Solve)
	if solveErr != nil {
		releaseMatrix(km)
		return nil, solveErr
	}
	m.Converged = converged

	fin := engine.StartPhase()
	m.finish(km)
	fin.Stop(&m.Times.Finish)
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
// dense matrices (ñ <= weightsExactCap) the kernel distance
// D_i = c + 1 − (2/ñ)·Σ_j K_ij falls out of the exact row sums. For larger
// targets it is estimated from a fixed set of evenly spaced pivot rows:
// D̂_i = ĉ + 1 − (2/m)·Σ_{p∈pivots} K_ip. Only the *ranking* of distances
// matters for the weights (they are normalized by the maximum), so the
// estimate preserves the behaviour at a fraction of the O(ñ²) cost — this
// keeps each SVDD training linear in ñ as the paper's cost analysis
// assumes. The cutoff is independent of the storage layout so that the
// widened dense cap leaves weight vectors unchanged.
func adaptiveWeights(km *kernelMatrix, times []int, lambda float64) []float64 {
	n := km.n
	dists := make([]float64, n)
	if km.full != nil && n <= weightsExactCap {
		rowSums := make([]float64, n)
		var double float64
		for i := 0; i < n; i++ {
			row := km.row(i)
			var s float64
			for _, v := range row {
				s += v
			}
			rowSums[i] = s
			double += s
		}
		nf := float64(n)
		c := double / (nf * nf)
		for i := 0; i < n; i++ {
			dists[i] = c + 1 - 2*rowSums[i]/nf
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
		sums := make([]float64, n)
		var double float64
		for _, p := range pivotIdx {
			row := km.row(p)
			for i := 0; i < n; i++ {
				sums[i] += row[i]
			}
			for _, q := range pivotIdx {
				double += row[q]
			}
		}
		mf := float64(m)
		c := double / (mf * mf)
		for i := 0; i < n; i++ {
			dists[i] = c + 1 - 2*sums[i]/mf
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

// initAlpha establishes the feasible starting point: the warm-started
// previous-round multipliers when supplied (clamped into the new boxes and
// renormalized to Σα = 1 in a cap-aware way), else the greedy fill that
// distributes the unit mass respecting caps.
func initAlpha(alpha, upper, warm []float64) {
	if warm != nil {
		var sum float64
		for i := range alpha {
			a := warm[i]
			if a < 0 {
				a = 0
			}
			if a > upper[i] {
				a = upper[i]
			}
			alpha[i] = a
			sum += a
		}
		switch {
		case sum > 1:
			// Scaling down keeps every multiplier inside its box.
			scale := 1 / sum
			for i := range alpha {
				alpha[i] *= scale
			}
			return
		case sum > 0:
			// Deficit: push the missing mass back onto the already-nonzero
			// multipliers (the previous round's support vectors),
			// proportionally to their remaining headroom. Keeping the start
			// vector as sparse as the previous solution matters more than
			// where exactly the mass lands — every nonzero multiplier costs
			// a kernel row for the initial gradient and an SMO step to clear
			// if misplaced. A greedy pass over the full target absorbs
			// whatever the support vectors' boxes cannot take (feasibility
			// Σ upper > 1 is guaranteed by the cap setup in Train).
			rem := 1 - sum
			for pass := 0; pass < 4 && rem > 1e-15; pass++ {
				var headroom float64
				for i := range alpha {
					if alpha[i] > 0 {
						headroom += upper[i] - alpha[i]
					}
				}
				if headroom <= 0 {
					break
				}
				scale := rem / headroom
				if scale > 1 {
					scale = 1
				}
				for i := range alpha {
					if alpha[i] > 0 {
						add := (upper[i] - alpha[i]) * scale
						alpha[i] += add
						rem -= add
					}
				}
			}
			for i := 0; i < len(alpha) && rem > 0; i++ {
				add := upper[i] - alpha[i]
				if add > rem {
					add = rem
				}
				if add > 0 {
					alpha[i] += add
					rem -= add
				}
			}
			return
		}
		// sum == 0 (all-new target or zeroed warm vector): cold start below.
	}
	remaining := 1.0
	for i := 0; i < len(alpha) && remaining > 0; i++ {
		a := math.Min(upper[i], remaining)
		alpha[i] = a
		remaining -= a
	}
}

// shrinkPeriod is the number of SMO iterations between working-set pruning
// passes. Pruning costs one scan over the active set, so it must be
// amortized over enough iterations; too long and the solver keeps scanning
// multipliers that have been pinned at their bounds for hundreds of
// iterations.
const shrinkPeriod = 64

// solveSMO runs SMO on the dual with first-order (maximal violating pair)
// or second-order (WSS2) working-set selection.
//
// With shrink set, the solver maintains an active working set: every
// shrinkPeriod iterations, multipliers pinned at a bound that cannot
// currently form a tol-violating pair (α_i = 0 with f_i within tol of the
// maximal gradient, or α_i = u_i with f_i within tol of the minimal one)
// are dropped from selection and from the incremental gradient update, so
// late iterations cost O(|A|) instead of O(ñ). When the active set
// converges, the gradient of every inactive multiplier is reconstructed and
// a full-pass KKT re-check runs over all ñ points; only if that passes is
// the model declared converged, so shrinking never changes the KKT
// conditions a converged model satisfies.
//
// The returned bool reports convergence: false means maxIter was exhausted
// and the current iterate is the best found. A non-nil ctx is polled every
// 1024 iterations; on cancellation the solve aborts with ctx's error.
func (m *Model) solveSMO(ctx context.Context, km *kernelMatrix, tol float64, maxIter int, secondOrder, shrink bool, warm []float64) (bool, error) {
	n := len(m.IDs)
	alpha := m.Alpha
	upper := m.Upper

	initAlpha(alpha, upper, warm)

	// f_i = Σ_j α_j K_ij maintained incrementally. The gradient of αᵀKα is
	// 2f; SMO moves mass from the max-gradient "down" candidate to the
	// min-gradient "up" candidate.
	f := make([]float64, n)
	for j := 0; j < n; j++ {
		if alpha[j] == 0 {
			continue
		}
		row := km.row(j)
		aj := alpha[j]
		for i := 0; i < n; i++ {
			f[i] += aj * row[i]
		}
	}

	// The active working set, as indices into the target. activeMask mirrors
	// it for the gradient reconstruction; shrunk records whether any
	// multiplier is currently excluded.
	active := make([]int32, n)
	for i := range active {
		active[i] = int32(i)
	}
	var activeMask []bool
	shrunk := false
	sincePrune := 0

	// unshrink brings every excluded multiplier back: gradients of the
	// inactive points are reconstructed and the working set reset to the
	// full target, so the next selection pass checks the full KKT
	// conditions.
	unshrink := func() {
		reconstructGradient(km, alpha, f, activeMask)
		active = active[:0]
		for i := 0; i < n; i++ {
			active = append(active, int32(i))
			activeMask[i] = true
		}
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
		// Select the up candidate (smallest gradient among points that can
		// grow) and the maximal-violation down candidate.
		up, down := -1, -1
		upVal, downVal := math.Inf(1), math.Inf(-1)
		for _, ii := range active {
			i := int(ii)
			if alpha[i] < upper[i]-svThreshold && f[i] < upVal {
				upVal, up = f[i], i
			}
			if alpha[i] > svThreshold && f[i] > downVal {
				downVal, down = f[i], i
			}
		}
		if up < 0 || down < 0 || downVal-upVal < tol {
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
		if secondOrder {
			// WSS2: re-pick the down candidate to maximize the predicted
			// objective decrease (f_j − f_up)² / η against up.
			rowUp := km.row(up)
			best, bestGain := -1, 0.0
			for _, jj := range active {
				j := int(jj)
				if alpha[j] <= svThreshold || f[j]-upVal < tol {
					continue
				}
				eta := 2 - 2*rowUp[j]
				if eta < 1e-12 {
					eta = 1e-12
				}
				diff := f[j] - upVal
				if gain := diff * diff / eta; gain > bestGain {
					best, bestGain = j, gain
				}
			}
			if best >= 0 {
				down = best
			}
		}
		i, j := up, down
		// Closed-form step: minimize along α_i += Δ, α_j -= Δ.
		eta := 2 - 2*km.at(i, j) // K_ii + K_jj − 2K_ij with Gaussian diag 1
		var delta float64
		if eta > 1e-12 {
			delta = (f[j] - f[i]) / eta
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
		rowI := km.row(i)
		rowJ := km.row(j)
		for _, kk := range active {
			k := int(kk)
			f[k] += delta * (rowI[k] - rowJ[k])
		}
		m.Iterations = iter + 1

		if !shrink {
			continue
		}
		sincePrune++
		if sincePrune < shrinkPeriod {
			continue
		}
		sincePrune = 0
		if activeMask == nil {
			activeMask = make([]bool, n)
			for i := range activeMask {
				activeMask[i] = true
			}
		}
		// Prune multipliers pinned at a bound that cannot currently form a
		// violating pair: at the lower bound they could only serve as the
		// up side, which needs downVal − f_i ≥ tol; at the upper bound only
		// as the down side, needing f_i − upVal ≥ tol. The extremes are the
		// pre-step selection values — a conservative snapshot, corrected by
		// the full re-check at convergence.
		out := active[:0]
		for _, ii := range active {
			k := int(ii)
			atLower := alpha[k] <= svThreshold
			atUpper := alpha[k] >= upper[k]-svThreshold
			if (atLower && downVal-f[k] < tol) || (atUpper && f[k]-upVal < tol) {
				activeMask[k] = false
				shrunk = true
				continue
			}
			out = append(out, ii)
		}
		active = out
	}
	return false, nil
}

// reconstructGradient recomputes f_i = Σ_j α_j K_ij for every inactive
// multiplier (the active ones are maintained incrementally). Cost is
// O(#SV · #inactive) row accesses — paid once per unshrink, not per
// iteration.
func reconstructGradient(km *kernelMatrix, alpha, f []float64, activeMask []bool) {
	n := len(alpha)
	stale := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if !activeMask[i] {
			f[i] = 0
			stale = append(stale, int32(i))
		}
	}
	if len(stale) == 0 {
		return
	}
	for j := 0; j < n; j++ {
		if alpha[j] == 0 {
			continue
		}
		row := km.row(j)
		aj := alpha[j]
		for _, ii := range stale {
			f[ii] += aj * row[ii]
		}
	}
}

// finish computes αᵀKα and the radius R² from the normal support vectors.
func (m *Model) finish(km *kernelMatrix) {
	n := len(m.IDs)
	var dot float64
	f := make([]float64, n)
	for j := 0; j < n; j++ {
		if m.Alpha[j] <= svThreshold {
			continue
		}
		row := km.row(j)
		aj := m.Alpha[j]
		for i := 0; i < n; i++ {
			f[i] += aj * row[i]
		}
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
		s += a * math.Exp(-vec.SqDist(m.point(i), x)*gamma)
	}
	return 1 - 2*s + m.alphaDot - m.R2
}

// ObjectiveValue returns the dual objective αᵀKα at the trained solution —
// the quantity SMO minimizes. Differential tests compare it across solver
// configurations (shrinking on/off, warm vs cold start), which must agree
// up to the convergence tolerance.
func (m *Model) ObjectiveValue() float64 { return m.alphaDot }

// SumAlpha returns Σα (1 up to solver tolerance); exposed for tests.
func (m *Model) SumAlpha() float64 {
	var s float64
	for _, a := range m.Alpha {
		s += a
	}
	return s
}
