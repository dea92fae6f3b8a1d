package svdd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dbsvec/internal/vec"
)

// The SMO solver as it ran before the fused pass: per iteration a selection
// scan and a gradient update, each over all ñ multipliers, with scalar
// gradient sums. It is kept, as denseReference is, as the reference that
// TestSolverTrajectoryPin holds solveSMO and finish to bit for bit.

// solveSMOTwoPass is the two-pass solver; it allocates its own state and
// ignores the pooled scratch.
func (m *Model) solveSMOTwoPass(ctx context.Context, km *kernelMatrix, _ *smoScratch, maxIter int) (bool, error) {
	n := len(m.IDs)
	alpha := m.Alpha
	upper := m.Upper

	initAlpha(alpha, upper)

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
		for i := 0; i < n; i++ {
			if alpha[i] < upper[i]-svThreshold && f[i] < upVal {
				upVal, up = f[i], i
			}
			if alpha[i] > svThreshold && f[i] > downVal {
				downVal, down = f[i], i
			}
		}
		if up < 0 || down < 0 || downVal-upVal < tol {
			m.Iterations = iter
			return true, nil
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
			m.Iterations = iter
			return true, nil
		}
		alpha[i] += delta
		alpha[j] -= delta
		rowI := km.row(i)
		rowJ := km.row(j)
		for k := 0; k < n; k++ {
			f[k] += delta * (rowI[k] - rowJ[k])
		}
		m.Iterations = iter + 1
	}
	return false, nil
}

// finishTwoPass is finish with the per-entry Kα loop it used before
// dist.Axpy.
func (m *Model) finishTwoPass(km *kernelMatrix) {
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

// duplicateCloud is gaussCloud over n/4+1 distinct points, each repeated:
// gradients tie exactly, and the degenerate-direction step (eta ≈ 0) runs.
func duplicateCloud(n, d int, seed int64) *vec.Dataset {
	base := gaussCloud(n/4+1, d, seed)
	coords := make([]float64, 0, n*d)
	rng := rand.New(rand.NewSource(seed))
	for range n {
		coords = append(coords, base.Point(rng.Intn(base.Len()))...)
	}
	ds, _ := vec.NewDataset(coords, d)
	return ds
}

// sameModel fails t unless got and want hold the same multipliers (bit
// for bit), iteration count, R², convergence verdict and top support
// vectors.
func sameModel(t *testing.T, name string, got, want *Model) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: iterations/converged %d/%v, reference %d/%v", name, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for i := range want.Alpha {
		if math.Float64bits(got.Alpha[i]) != math.Float64bits(want.Alpha[i]) {
			t.Fatalf("%s: alpha[%d] = %v, reference %v", name, i, got.Alpha[i], want.Alpha[i])
		}
	}
	if math.Float64bits(got.R2) != math.Float64bits(want.R2) {
		t.Fatalf("%s: R2 = %v, reference %v", name, got.R2, want.R2)
	}
	for _, k := range []int{0, 3, 10} {
		g, w := got.TopSupportVectors(k), want.TopSupportVectors(k)
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s: TopSupportVectors(%d) = %v, reference %v", name, k, g, w)
		}
	}
}

// TestSolverTrajectoryPin pins the fused one-pass solver to the two-pass
// loop it replaced: the same multipliers bit for bit, the same iteration
// count, R² and top support vectors, on both kernel tiers (ñ ≤ 256 dense,
// above lazy), with uniform and adaptive weights, on a Gaussian cloud and on
// duplicate points whose gradients tie. finish is held to its per-entry form
// as well: αᵀKα, R² and every boundary score, and every converged model
// meets the KKT conditions.
func TestSolverTrajectoryPin(t *testing.T) {
	for _, n := range []int{2, 37, 256, 257, 700, 1024} {
		times := make([]int, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range times {
			times[i] = rng.Intn(4)
		}
		for _, data := range []struct {
			name string
			ds   *vec.Dataset
		}{{"cloud", gaussCloud(n, 8, int64(n))}, {"duplicates", duplicateCloud(n, 8, int64(n))}} {
			for _, c := range []struct {
				nu      float64
				weights bool
			}{{0.1, false}, {0.1, true}, {0.5, false}, {0.5, true}} {
				cfg := Config{Nu: c.nu, Workers: 2}
				if c.weights {
					cfg.Times = times
				}
				name := fmt.Sprintf("n=%d %s nu=%v weights=%v", n, data.name, c.nu, c.weights)
				checkTrajectory(t, name, data.ds, cfg)
			}
		}
	}
}

// checkTrajectory trains ds once with each solver and compares the models,
// then holds finish to finishTwoPass on the kernel matrix it used. Every
// model must also keep Σα = 1, and a converged one the KKT conditions: a
// maximal-violating-pair gap below tol on gradients summed afresh.
func checkTrajectory(t *testing.T, name string, ds *vec.Dataset, cfg Config) {
	t.Helper()
	ids := vec.Iota(ds.Len())
	want, wantErr := train(ds, ids, cfg, newKernelMatrix, (*Model).solveSMOTwoPass)
	got, gotErr := train(ds, ids, cfg, newKernelMatrix, (*Model).solveSMO)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (got == nil) != (want == nil) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if got == nil {
		return // a degenerate target: both refused it
	}
	sameModel(t, name, got, want)
	if s := got.SumAlpha(); math.Abs(s-1) > 1e-9 {
		t.Fatalf("%s: sum alpha = %v", name, s)
	}
	if got.Converged {
		if g := kktViolation(t, ds, got); g >= tol {
			t.Fatalf("%s: converged model violates KKT by %v", name, g)
		}
	}

	ref := *got
	km := newKernelMatrix(ds, ids, got.Sigma, 1)
	ref.finishTwoPass(km)
	releaseMatrix(km)
	if math.Float64bits(ref.alphaDot) != math.Float64bits(got.alphaDot) || math.Float64bits(ref.R2) != math.Float64bits(got.R2) {
		t.Fatalf("%s: finish alphaDot/R2 %v/%v, per-entry %v/%v", name, got.alphaDot, got.R2, ref.alphaDot, ref.R2)
	}
	for i := range ref.svScore {
		if math.Float64bits(ref.svScore[i]) != math.Float64bits(got.svScore[i]) {
			t.Fatalf("%s: svScore[%d] = %v, per-entry %v", name, i, got.svScore[i], ref.svScore[i])
		}
	}
}

// TestAdaptiveWeightsColumnSums holds adaptiveWeights, whose kernel sums
// run column-wise through dist.Axpy, to the per-entry row sums (dense tier)
// and pivot sums (lazy tier) they replaced, bit for bit.
func TestAdaptiveWeightsColumnSums(t *testing.T) {
	for _, n := range []int{2, 37, 256, 257, 700} {
		ds := gaussCloud(n, 8, int64(n)+1)
		ids := vec.Iota(n)
		times := make([]int, n)
		for i := range times {
			times[i] = i % 3
		}
		km := newKernelMatrix(ds, ids, SigmaLowerBound(ds, ids), 1)
		got := adaptiveWeights(km, times, 1)

		sums := make([]float64, n)
		var double float64
		var norm float64
		if n <= weightsExactCap {
			for i := range sums {
				for _, v := range km.row(i) {
					sums[i] += v
				}
				double += sums[i]
			}
			norm = float64(n)
		} else {
			const pivots = 96
			stride := float64(n) / pivots
			for p := 0; p < pivots; p++ {
				row := km.row(int(float64(p) * stride))
				for i := range sums {
					sums[i] += row[i]
				}
				for q := 0; q < pivots; q++ {
					double += row[int(float64(q)*stride)]
				}
			}
			norm = pivots
		}
		releaseMatrix(km)
		c := double / (norm * norm)
		maxD := 0.0
		for i, s := range sums {
			sums[i] = max(c+1-2*s/norm, 0)
			maxD = max(maxD, sums[i])
		}
		for i, s := range sums {
			want := math.Pow(lambda, float64(times[i])) * (1 - s/maxD)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("n=%d: weight[%d] = %v, per-entry sums give %v", n, i, got[i], want)
			}
		}
	}
}

// TestTrainAllocs pins the steady-state allocations of one Train at the
// measured counts: the solver's gradient and biases and finish's buffer come
// from scratchPool, and the kernel pools hold *[]float64, so returning a
// lazy row or a dense matrix allocates nothing and the count does not grow
// with the rows a training touches. The race detector drops pooled buffers
// at random, so the counts mean nothing there.
func TestTrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	for _, tc := range []struct {
		n       int
		weights bool
		bound   float64
	}{{37, true, 9}, {256, false, 7}, {256, true, 9}, {512, true, 14}, {1024, false, 7}} {
		ds := gaussCloud(tc.n, 8, 5)
		ids := vec.Iota(tc.n)
		cfg := Config{Nu: 0.1}
		if tc.weights {
			cfg.Times = make([]int, tc.n)
			for i := range cfg.Times {
				cfg.Times[i] = i % 3
			}
		}
		run := func() {
			if _, err := Train(ds, ids, cfg); err != nil && !errors.Is(err, ErrAllSupportVectors) {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(20, run); got > tc.bound {
			t.Errorf("n=%d weights=%v: %v allocations per Train, want at most %v", tc.n, tc.weights, got, tc.bound)
		}
	}
}

// TestSolverTrajectoryPinSmallTargets runs the trajectory pin over 500
// small random targets: coordinates on a coarse grid, so points coincide
// and gradients tie, random ν and weights, and half of them with a narrow
// or wide fixed σ: coincident points, exact gradient ties and degenerate
// (η ≈ 0) steps at many shapes the larger targets above do not cover.
func TestSolverTrajectoryPinSmallTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for c := 0; c < 500; c++ {
		n, d := 8+rng.Intn(120), 1+rng.Intn(4)
		coords := make([]float64, n*d)
		for i := range coords {
			coords[i] = float64(rng.Intn(6)) + rng.Float64()*float64(rng.Intn(2))
		}
		ds, err := vec.NewDataset(coords, d)
		if err != nil {
			t.Fatal(err)
		}
		times := make([]int, n)
		for i := range times {
			times[i] = rng.Intn(6)
		}
		cfg := Config{Nu: 0.01 + 0.9*rng.Float64()}
		if rng.Intn(2) == 0 {
			cfg.Sigma = 0.2 + 2*rng.Float64()
		}
		if rng.Intn(3) > 0 {
			cfg.Times = times
		}
		checkTrajectory(t, fmt.Sprintf("case %d (n=%d d=%d nu=%v sigma=%v)", c, n, d, cfg.Nu, cfg.Sigma), ds, cfg)
	}
}
