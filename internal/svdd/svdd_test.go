package svdd

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dbsvec/internal/dist"
	"dbsvec/internal/vec"
)

func ringDataset(n int, r float64, jitter float64, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		theta := 2 * math.Pi * float64(i) / float64(n)
		rows[i] = []float64{
			r*math.Cos(theta) + rng.NormFloat64()*jitter,
			r*math.Sin(theta) + rng.NormFloat64()*jitter,
		}
	}
	ds, _ := vec.FromRows(rows)
	return ds
}

func blobWithOutliers(n int, seed int64) (*vec.Dataset, []int) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, 0, n+3)
	for i := 0; i < n; i++ {
		rows = append(rows, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	outliers := []int{n, n + 1, n + 2}
	rows = append(rows, []float64{8, 0}, []float64{0, -7}, []float64{6, 6})
	ds, _ := vec.FromRows(rows)
	return ds, outliers
}

func allIDs(n int) []int32 {
	return vec.Iota(n)
}

func TestTrainEmpty(t *testing.T) {
	ds, _ := vec.FromRows(nil)
	if _, err := Train(ds, nil, Config{Nu: 0.1}); err == nil {
		t.Error("want error for empty target")
	}
}

func TestTrainBadNu(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0, 0}, {1, 1}})
	if _, err := Train(ds, allIDs(2), Config{Nu: 1.5}); err == nil {
		t.Error("want error for nu > 1")
	}
	if _, err := Train(ds, allIDs(2), Config{Nu: -0.1}); err == nil {
		t.Error("want error for negative nu")
	}
	if _, err := Train(ds, allIDs(2), Config{Nu: math.NaN()}); !errors.Is(err, ErrBadNu) {
		t.Errorf("NaN nu: err = %v, want ErrBadNu", err)
	}
	if _, err := Train(ds, allIDs(2), Config{}); !errors.Is(err, ErrBadNu) {
		t.Errorf("zero nu: err = %v, want ErrBadNu (the caller resolves nu*)", err)
	}
}

func TestSinglePoint(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{3, 4}})
	m, err := Train(ds, allIDs(1), Config{Nu: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.SupportVectors()) != 1 || m.Alpha[0] != 1 {
		t.Errorf("single point model: alpha=%v svs=%v", m.Alpha, m.SupportVectors())
	}
}

// The fundamental dual constraints must hold after training.
func TestDualConstraints(t *testing.T) {
	ds, _ := blobWithOutliers(200, 1)
	for _, nu := range []float64{0.05, 0.1, 0.3, 0.9} {
		m, err := Train(ds, allIDs(ds.Len()), Config{Nu: nu})
		if err != nil {
			t.Fatalf("nu=%g: %v", nu, err)
		}
		if s := m.SumAlpha(); math.Abs(s-1) > 1e-9 {
			t.Errorf("nu=%g: sum alpha = %v, want 1", nu, s)
		}
		for i, a := range m.Alpha {
			if a < -1e-12 || a > m.Upper[i]+1e-12 {
				t.Errorf("nu=%g: alpha[%d]=%v outside [0,%v]", nu, i, a, m.Upper[i])
			}
		}
	}
}

// ν bounds the SV fraction from below and the BSV fraction from above
// (Schölkopf et al., referenced in Section IV-C).
func TestNuControlsSVFraction(t *testing.T) {
	ds, _ := blobWithOutliers(300, 2)
	n := ds.Len()
	for _, nu := range []float64{0.05, 0.2, 0.5} {
		m, err := Train(ds, allIDs(n), Config{Nu: nu})
		if err != nil {
			t.Fatal(err)
		}
		svFrac := float64(len(m.SupportVectors())) / float64(n)
		bsvFrac := float64(len(m.BoundedSupportVectors())) / float64(n)
		if svFrac < nu-0.02 {
			t.Errorf("nu=%g: SV fraction %v below nu", nu, svFrac)
		}
		if bsvFrac > nu+0.02 {
			t.Errorf("nu=%g: BSV fraction %v above nu", nu, bsvFrac)
		}
	}
}

// More ν ⇒ at least roughly as many support vectors (monotone trend).
func TestNuMonotoneTrend(t *testing.T) {
	ds, _ := blobWithOutliers(250, 3)
	prev := 0
	for _, nu := range []float64{0.02, 0.1, 0.4} {
		m, err := Train(ds, allIDs(ds.Len()), Config{Nu: nu})
		if err != nil {
			t.Fatal(err)
		}
		k := len(m.SupportVectors())
		if k+3 < prev { // slack for solver ties
			t.Errorf("SV count dropped sharply as nu grew: %d -> %d", prev, k)
		}
		prev = k
	}
}

// Support vectors of a compact blob lie on its boundary: their distance
// from the centroid must be above the median distance.
func TestSupportVectorsOnBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 300
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
	}
	ds, _ := vec.FromRows(rows)
	m, err := Train(ds, allIDs(n), Config{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	mean := ds.Mean(allIDs(n))
	dists := make([]float64, n)
	for i := 0; i < n; i++ {
		dists[i] = dist.Dist(ds.Point(i), mean)
	}
	sorted := append([]float64(nil), dists...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	median := sorted[n/2]
	svs := m.SupportVectors()
	above := 0
	for _, id := range svs {
		if dists[id] > median {
			above++
		}
	}
	if frac := float64(above) / float64(len(svs)); frac < 0.8 {
		t.Errorf("only %.0f%% of support vectors beyond median distance", frac*100)
	}
}

// Eval must be <= 0 (inside) for deep interior points and > 0 for far
// exterior points.
func TestEvalSeparatesInteriorExterior(t *testing.T) {
	ds, outliers := blobWithOutliers(300, 5)
	ids := allIDs(300) // train only on the blob, not the outliers
	m, err := Train(ds, ids, Config{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Eval([]float64{0, 0}); v > 0 {
		t.Errorf("centroid evaluated outside the sphere: %v", v)
	}
	for _, o := range outliers {
		if v := m.Eval(ds.Point(o)); v <= 0 {
			t.Errorf("outlier %d evaluated inside the sphere: %v", o, v)
		}
	}
	if v := m.Eval([]float64{100, 100}); v <= 0 {
		t.Errorf("far point evaluated inside: %v", v)
	}
}

// Weighted training: points with small adaptive weights (low caps) should
// be pushed to their bound and become support vectors more readily than
// points with large ones. The participation counts of Eq. 7 set the
// weights: t = 0 on the first ring half, t = 8 (ω scaled by λ⁸) on the
// second.
func TestWeightsSteerSupportVectors(t *testing.T) {
	ds := ringDataset(120, 10, 0.3, 6)
	n := ds.Len()
	times := make([]int, n)
	for i := n / 2; i < n; i++ {
		times[i] = 8
	}
	m, err := Train(ds, allIDs(n), Config{Nu: 0.2, Times: times})
	if err != nil {
		t.Fatal(err)
	}
	low, high := 0, 0
	for _, id := range m.SupportVectors() {
		if int(id) < n/2 {
			low++
		} else {
			high++
		}
	}
	if low <= high {
		t.Errorf("low-weight half should dominate SVs: low=%d high=%d", low, high)
	}
}

func TestSigmaLowerBound(t *testing.T) {
	ds := ringDataset(100, 5, 0, 7)
	sigma := SigmaLowerBound(ds, allIDs(100))
	want := 5 / math.Sqrt2
	if math.Abs(sigma-want)/want > 0.05 {
		t.Errorf("sigma = %v, want ~%v", sigma, want)
	}
	// Degenerate target: all duplicates.
	dup, _ := vec.FromRows([][]float64{{1, 1}, {1, 1}})
	if s := SigmaLowerBound(dup, allIDs(2)); s <= 0 {
		t.Errorf("sigma on duplicates = %v, want positive floor", s)
	}
	if s := SigmaLowerBound(dup, nil); s <= 0 {
		t.Errorf("sigma on empty = %v, want positive floor", s)
	}
}

func TestNuStar(t *testing.T) {
	nu := NuStar(8, 100, 1000)
	if nu <= 0 || nu > 1 {
		t.Fatalf("NuStar out of range: %v", nu)
	}
	// ν* must never fall below 1/ñ.
	if nu < 1.0/1000 {
		t.Errorf("NuStar below 1/n: %v", nu)
	}
	// Extremes.
	if got := NuStar(2, 10, 0); got != 1 {
		t.Errorf("NuStar with empty target = %v, want 1", got)
	}
	if got := NuStar(1000, 2, 10); got != 1 {
		t.Errorf("NuStar should clamp to 1, got %v", got)
	}
}

func TestKernelDistances(t *testing.T) {
	// On a symmetric ring all kernel distances are (nearly) equal; a point
	// appended far away must get a larger kernel distance.
	ds := ringDataset(60, 5, 0, 8)
	rows := make([][]float64, 0, 61)
	for i := 0; i < 60; i++ {
		rows = append(rows, append([]float64(nil), ds.Point(i)...))
	}
	rows = append(rows, []float64{30, 30})
	ds2, _ := vec.FromRows(rows)
	dists := KernelDistances(ds2, allIDs(61), 5)
	far := dists[60]
	for i := 0; i < 60; i++ {
		if dists[i] >= far {
			t.Fatalf("ring point %d kernel distance %v >= far point %v", i, dists[i], far)
		}
	}
	// All distances are squared norms: non-negative.
	for i, d := range dists {
		if d < 0 {
			t.Errorf("negative kernel distance at %d: %v", i, d)
		}
	}
}

func TestKernelDistancesEmpty(t *testing.T) {
	ds, _ := vec.FromRows(nil)
	if got := KernelDistances(ds, nil, 1); len(got) != 0 {
		t.Errorf("empty target should give empty distances, got %v", got)
	}
}

func TestGaussianKernelBasics(t *testing.T) {
	a := []float64{0, 0}
	if got := GaussianKernel(a, a, 1); got != 1 {
		t.Errorf("K(x,x) = %v, want 1", got)
	}
	near := GaussianKernel(a, []float64{0.1, 0}, 1)
	far := GaussianKernel(a, []float64{3, 0}, 1)
	if !(near > far && far > 0 && near < 1) {
		t.Errorf("kernel ordering wrong: near=%v far=%v", near, far)
	}
}

// Duplicate-heavy targets must not wedge the solver (η = 0 path).
func TestDuplicatePoints(t *testing.T) {
	rows := make([][]float64, 50)
	for i := range rows {
		rows[i] = []float64{float64(i % 3), 0}
	}
	ds, _ := vec.FromRows(rows)
	m, err := Train(ds, allIDs(50), Config{Nu: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.SumAlpha(); math.Abs(s-1) > 1e-9 {
		t.Errorf("sum alpha = %v", s)
	}
}

// Fixed sigma must be honored.
func TestExplicitSigma(t *testing.T) {
	ds := ringDataset(80, 5, 0.1, 9)
	m, err := Train(ds, allIDs(80), Config{Nu: 0.2, Sigma: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sigma != 2.5 {
		t.Errorf("Sigma = %v, want 2.5", m.Sigma)
	}
}

func BenchmarkTrain500(b *testing.B) {
	ds, _ := blobWithOutliers(500, 10)
	ids := allIDs(ds.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(ds, ids, Config{Nu: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}
