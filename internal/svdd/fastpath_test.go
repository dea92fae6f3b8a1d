package svdd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dbsvec/internal/vec"
)

// gaussCloud builds an n×d standard-normal cloud, scaled so the σ = r/√2
// rule yields a well-conditioned kernel.
func gaussCloud(n, d int, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, 0, n*d)
	for i := 0; i < n*d; i++ {
		coords = append(coords, rng.NormFloat64()*3)
	}
	ds, _ := vec.NewDataset(coords, d)
	return ds
}

// denseReference builds the kernel matrix for ids fully materialized by
// fillDense at any size — the storage Train uses only up to weightsExactCap.
// Tests compare the lazy tier against it; benchmarks time it as the eager
// baseline.
func denseReference(ds *vec.Dataset, ids []int32, sigma float64, workers int) *kernelMatrix {
	km := newKernelMatrix(ds, ids, sigma, workers)
	if km.full == nil {
		km.rows = nil
		km.full = getMatrixBuf(km.n * km.n)
		km.fillDense(workers)
	}
	return km
}

// TestParallelFillBitIdentical pins the dense tier: targets up to
// weightsExactCap are stored dense, and the fill is bit-identical for every
// worker count; one point more and every worker count stores lazily.
func TestParallelFillBitIdentical(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{200, 4}, {200, 24}, {weightsExactCap, 8}, {weightsExactCap, 24}} {
		ds := gaussCloud(tc.n, tc.d, int64(tc.n+tc.d))
		ids := vec.Iota(tc.n)
		sigma := SigmaLowerBound(ds, ids)

		ref := newKernelMatrix(ds, ids, sigma, 1)
		if ref.full == nil {
			t.Fatalf("n=%d: serial fill is not dense", tc.n)
		}
		refCopy := append([]float64(nil), ref.full...)
		releaseMatrix(ref)

		for _, workers := range []int{2, 8} {
			km := newKernelMatrix(ds, ids, sigma, workers)
			if km.full == nil {
				t.Fatalf("n=%d workers=%d: parallel fill is not dense", tc.n, workers)
			}
			for i, v := range km.full {
				if v != refCopy[i] {
					t.Fatalf("n=%d d=%d workers=%d: entry (%d,%d) = %x, serial %x",
						tc.n, tc.d, workers, i/tc.n, i%tc.n, math.Float64bits(v), math.Float64bits(refCopy[i]))
				}
			}
			releaseMatrix(km)
		}
	}
	n := weightsExactCap + 1
	ds := gaussCloud(n, 8, 1)
	ids := vec.Iota(n)
	for _, workers := range []int{1, 2, 8} {
		km := newKernelMatrix(ds, ids, SigmaLowerBound(ds, ids), workers)
		if km.full != nil || km.rows == nil {
			t.Fatalf("n=%d workers=%d: expected lazy storage above weightsExactCap", n, workers)
		}
		releaseMatrix(km)
	}
}

// TestLazyRowsMatchDenseFill pins the other half of the storage-mode
// guarantee: lazily materialized rows (every target above weightsExactCap,
// for every worker count) hold bit-identical values to the dense fill,
// including the scalar at() fallback, in both the plain and cached-norms
// distance regimes.
func TestLazyRowsMatchDenseFill(t *testing.T) {
	for _, d := range []int{8, 24} { // below and above the cached-norms threshold (16)
		n := 300
		ds := gaussCloud(n, d, int64(d))
		ids := vec.Iota(n)
		sigma := SigmaLowerBound(ds, ids)

		dense := denseReference(ds, ids, sigma, 2)
		for _, workers := range []int{1, 2} {
			lazy := newKernelMatrix(ds, ids, sigma, workers)
			if lazy.full != nil {
				t.Fatalf("d=%d workers=%d: expected lazy storage at n=%d", d, workers, n)
			}
			// Scalar fallback before any row exists.
			for _, pair := range [][2]int{{0, n - 1}, {7, 3}, {n / 2, n/2 + 1}} {
				i, j := pair[0], pair[1]
				if got, want := lazy.at(i, j), dense.at(i, j); got != want {
					t.Errorf("d=%d: at(%d,%d) lazy %x dense %x", d, i, j,
						math.Float64bits(got), math.Float64bits(want))
				}
			}
			// Full rows.
			for _, i := range []int{0, 1, n / 3, n - 1} {
				lr, dr := lazy.row(i), dense.row(i)
				for j := 0; j < n; j++ {
					if lr[j] != dr[j] {
						t.Fatalf("d=%d: row %d entry %d lazy %x dense %x", d, i, j,
							math.Float64bits(lr[j]), math.Float64bits(dr[j]))
					}
				}
			}
			releaseMatrix(lazy)
		}
		releaseMatrix(dense)
	}
}

// TestPivotBatchMatchesSerialRows pins the pivot-row batch: rows cached by
// fillRows across any worker count are bit-identical to the same rows
// touched one at a time through row(), in both distance regimes and both
// storage precisions, and the adaptive weights built on them are too.
func TestPivotBatchMatchesSerialRows(t *testing.T) {
	for _, n := range []int{300, 1024} {
		for _, d := range []int{8, 24} { // below and above the cached-norms threshold (16)
			for _, prec := range []vec.Precision{vec.F64, vec.F32} {
				ds, err := gaussCloud(n, d, int64(n*d)).ToPrecision(prec)
				if err != nil {
					t.Fatal(err)
				}
				ids := vec.Iota(n)
				sigma := SigmaLowerBound(ds, ids)
				times := make([]int, n)
				for i := range times {
					times[i] = i % 3
				}
				pivots := []int{0, 1, n / 7, n / 2, n - 2, n - 1}

				serial := newKernelMatrix(ds, ids, sigma, 1)
				for _, p := range pivots {
					serial.row(p)
				}
				ref := newKernelMatrix(ds, ids, sigma, 1)
				wantW := adaptiveWeights(ref, times, 1)
				releaseMatrix(ref)
				for _, workers := range []int{1, 2, 8} {
					km := newKernelMatrix(ds, ids, sigma, workers)
					km.fillRows(pivots, workers)
					for _, p := range pivots {
						got, want := km.rows[p], serial.rows[p]
						if got == nil {
							t.Fatalf("n=%d d=%d %v workers=%d: pivot row %d not cached", n, d, prec, workers, p)
						}
						for j := range want {
							if got[j] != want[j] {
								t.Fatalf("n=%d d=%d %v workers=%d: row %d entry %d batch %x serial %x",
									n, d, prec, workers, p, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
							}
						}
					}
					releaseMatrix(km)

					km = newKernelMatrix(ds, ids, sigma, workers)
					for i, w := range adaptiveWeights(km, times, workers) {
						if w != wantW[i] {
							t.Fatalf("n=%d d=%d %v workers=%d: weight %d = %x, serial %x",
								n, d, prec, workers, i, math.Float64bits(w), math.Float64bits(wantW[i]))
						}
					}
					releaseMatrix(km)
				}
				releaseMatrix(serial)
			}
		}
	}
}

// TestTrainWorkersDeterministic verifies the end-to-end consequence: a
// training run is bit-identical across worker counts, storage modes
// included.
func TestTrainWorkersDeterministic(t *testing.T) {
	for _, d := range []int{8, 24} {
		ds := gaussCloud(400, d, 11)
		ids := vec.Iota(400)
		times := make([]int, 400)
		base, err := Train(ds, ids, Config{Nu: 0.1, Times: times, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			m, err := Train(ds, ids, Config{Nu: 0.1, Times: times, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if m.Iterations != base.Iterations || m.R2 != base.R2 {
				t.Fatalf("d=%d workers=%d: iterations/R2 %d/%v differ from serial %d/%v",
					d, workers, m.Iterations, m.R2, base.Iterations, base.R2)
			}
			for i := range m.Alpha {
				if m.Alpha[i] != base.Alpha[i] {
					t.Fatalf("d=%d workers=%d: alpha[%d] differs", d, workers, i)
				}
			}
		}
	}
}

// kktViolation returns the maximal-violating-pair gap of a trained model:
// max over feasible down candidates of f_i minus min over feasible up
// candidates of f_j. Convergence means the gap is below tolerance.
func kktViolation(t *testing.T, ds *vec.Dataset, m *Model) float64 {
	t.Helper()
	km := newKernelMatrix(ds, m.IDs, m.Sigma, 1)
	defer releaseMatrix(km)
	n := len(m.IDs)
	upVal, downVal := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		var f float64
		row := km.row(i)
		for j := 0; j < n; j++ {
			f += m.Alpha[j] * row[j]
		}
		if m.Alpha[i] < m.Upper[i]-svThreshold && f < upVal {
			upVal = f
		}
		if m.Alpha[i] > svThreshold && f > downVal {
			downVal = f
		}
	}
	return downVal - upVal
}

// TestShrinkMatchesFullScan verifies that shrinking changes no observable
// output: the final full-pass KKT re-check makes the shrunk solver converge
// to a model satisfying the same conditions, and on these inputs the very
// same iterate path.
func TestShrinkMatchesFullScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ds := gaussCloud(350, 6, seed)
		ids := vec.Iota(350)
		times := make([]int, 350)
		full, err := train(ds, ids, Config{Nu: 0.05, Times: times}, newKernelMatrix, (*Model).solveSMO, false)
		if err != nil {
			t.Fatal(err)
		}
		shrunk, err := Train(ds, ids, Config{Nu: 0.05, Times: times})
		if err != nil {
			t.Fatal(err)
		}
		if g := kktViolation(t, ds, shrunk); g >= tol {
			t.Errorf("seed %d: shrunk model violates KKT by %g", seed, g)
		}
		// Shrinking may select different pairs after the first prune, so the
		// iterate paths can diverge — but both minimize the same convex dual
		// to the same KKT gap, bounding the objective difference by O(tol).
		if math.Abs(full.ObjectiveValue()-shrunk.ObjectiveValue()) > 1e-3 {
			t.Errorf("seed %d: objective %g (shrink) vs %g (full scan)",
				seed, shrunk.ObjectiveValue(), full.ObjectiveValue())
		}
		if s := shrunk.SumAlpha(); math.Abs(s-1) > 1e-9 {
			t.Errorf("seed %d: sum alpha = %g", seed, s)
		}
	}
}

// TestInitAlpha covers the greedy cap-respecting fill directly.
func TestInitAlpha(t *testing.T) {
	upper := []float64{0.5, 0.5, 0.5, 0.5}
	sum := func(a []float64) float64 {
		var s float64
		for _, v := range a {
			s += v
		}
		return s
	}

	// Cold start: greedy cap-respecting fill.
	a := make([]float64, 4)
	initAlpha(a, upper)
	if a[0] != 0.5 || a[1] != 0.5 || a[2] != 0 || sum(a) != 1 {
		t.Errorf("cold fill = %v", a)
	}

	// The mass spills over as many boxes as it needs; the remainder lands
	// on the last one and later entries stay zero.
	a = make([]float64, 4)
	initAlpha(a, []float64{0.3, 0.3, 0.3, 0.3})
	if a[0] != 0.3 || a[1] != 0.3 || a[2] != 0.3 || math.Abs(a[3]-0.1) > 1e-15 || math.Abs(sum(a)-1) > 1e-15 {
		t.Errorf("spill fill = %v", a)
	}
}

// TestTopSupportVectorsTieBreak pins the deterministic ordering when
// support vectors tie on boundary score: ids ascend.
func TestTopSupportVectorsTieBreak(t *testing.T) {
	m := &Model{
		IDs:     []int32{42, 7, 19, 3, 88},
		Alpha:   []float64{0.2, 0.2, 0.2, 0.2, 0.2},
		Upper:   []float64{1, 1, 1, 1, 1},
		svScore: []float64{0.5, 0.5, 0.5, 0.5, 0.5},
	}
	got := m.TopSupportVectors(3)
	want := []int32{3, 7, 19}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("equal-score tie break = %v, want %v", got, want)
		}
	}
	// Mixed scores: higher score first, ties among the rest by id.
	m.svScore = []float64{0.5, 0.9, 0.5, 0.5, 0.5}
	got = m.TopSupportVectors(3)
	want = []int32{7, 3, 19}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mixed-score tie break = %v, want %v", got, want)
		}
	}
	// Nil svScore (untrained construction) must not panic and still order
	// by id on the all-equal scores.
	m.svScore = nil
	got = m.TopSupportVectors(2)
	want = []int32{3, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nil-score tie break = %v, want %v", got, want)
		}
	}
}

// benchTrainConfig mirrors a DBSVEC training round at the acceptance shape
// ñ=512, d=8.
func benchTrainConfig() Config {
	return Config{Nu: 0.1, Times: make([]int, 512)}
}

// BenchmarkTrain512d8 is the acceptance micro-benchmark recorded in
// internal/svdd/README.md. The serial baseline trains on a fully dense
// matrix with a full-scan solver — the strategy a non-adaptive
// implementation would use; the fast variants use the lazy tier with the
// pivot-row batch, shrinking and parallel workers, and twopass-serial is
// fast-serial with the two-pass SMO loop the fused pass replaced.
func BenchmarkTrain512d8(b *testing.B) {
	ds := gaussCloud(512, 8, 3)
	ids := vec.Iota(512)
	run := func(b *testing.B, cfg Config, build func(*vec.Dataset, []int32, float64, int) *kernelMatrix, solve solver, shrink bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := train(ds, ids, cfg, build, solve, shrink); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("baseline-eager-serial", func(b *testing.B) {
		cfg := benchTrainConfig()
		cfg.Workers = 1
		run(b, cfg, denseReference, (*Model).solveSMO, false)
	})
	b.Run("twopass-serial", func(b *testing.B) {
		cfg := benchTrainConfig()
		cfg.Workers = 1
		run(b, cfg, newKernelMatrix, (*Model).solveSMOTwoPass, true)
	})
	b.Run("fast-serial", func(b *testing.B) {
		cfg := benchTrainConfig()
		cfg.Workers = 1
		run(b, cfg, newKernelMatrix, (*Model).solveSMO, true)
	})
	b.Run("fast-workers8", func(b *testing.B) {
		cfg := benchTrainConfig()
		cfg.Workers = 8
		run(b, cfg, newKernelMatrix, (*Model).solveSMO, true)
	})
}

// BenchmarkKernelFill512 isolates the dense fill at a size above the dense
// tier, the cost the lazy tier avoids.
func BenchmarkKernelFill512(b *testing.B) {
	ds := gaussCloud(512, 8, 3)
	ids := vec.Iota(512)
	sigma := SigmaLowerBound(ds, ids)
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				km := denseReference(ds, ids, sigma, workers)
				releaseMatrix(km)
			}
		})
	}
}
