package dist

import (
	"math"
	"math/rand"
	"testing"
)

// naiveSqDist is the scalar reference loop every kernel is checked against:
// the exact code the repository used before this package existed.
func naiveSqDist(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		dv := av - b[i]
		s += dv * dv
	}
	return s
}

// ulpTol returns an absolute tolerance of roughly a few ULPs around v,
// scaled with dimensionality to cover reassociated accumulation.
func ulpTol(v float64, d int) float64 {
	return 1e-12 * (math.Abs(v) + 1) * float64(d+1)
}

func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = (rng.Float64() - 0.5) * 200
	}
	return v
}

func randMatrix(rng *rand.Rand, n, d int) Matrix {
	return Matrix{Coords: randVec(rng, n*d), Dim: d}
}

// TestSqDistAgainstNaive is the differential property test of the unrolled
// kernel and its small-dimension specializations: for random dims 1..64
// (covering empty tails, odd lengths, and the d=2/d=3 fast paths) SqDist
// must agree with the naive reference within ULP-scale tolerance.
func TestSqDistAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for d := 1; d <= 64; d++ {
		for trial := 0; trial < 20; trial++ {
			a := randVec(rng, d)
			b := randVec(rng, d)
			want := naiveSqDist(a, b)
			got := SqDist(a, b)
			if math.Abs(got-want) > ulpTol(want, d) {
				t.Fatalf("d=%d: SqDist = %v, naive = %v", d, got, want)
			}
			if d >= 2 {
				if got2 := SqDist2(a, b); math.Abs(got2-naiveSqDist(a[:2], b[:2])) > ulpTol(want, 2) {
					t.Fatalf("d=%d: SqDist2 diverges", d)
				}
			}
			if d >= 3 {
				if got3 := SqDist3(a, b); math.Abs(got3-naiveSqDist(a[:3], b[:3])) > ulpTol(want, 3) {
					t.Fatalf("d=%d: SqDist3 diverges", d)
				}
			}
		}
	}
	// Zero-dimension edge: both empty.
	if got := SqDist(nil, nil); got != 0 {
		t.Fatalf("SqDist(nil, nil) = %v, want 0", got)
	}
}

// TestBatchedKernelsAgainstNaive checks that every fused/batched kernel
// agrees with per-pair naive evaluation across random dims, id subsets, and
// radii.
func TestBatchedKernelsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 13, 32, 64} {
		n := 50 + rng.Intn(50)
		m := randMatrix(rng, n, d)
		q := randVec(rng, d)

		// Random id subset with duplicates allowed.
		ids := make([]int32, rng.Intn(n)+1)
		for k := range ids {
			ids[k] = int32(rng.Intn(n))
		}

		out := make([]float64, n)
		SqDistsToAll(m, q, out)
		for i := 0; i < n; i++ {
			want := naiveSqDist(m.Row(i), q)
			if math.Abs(out[i]-want) > ulpTol(want, d) {
				t.Fatalf("d=%d: SqDistsToAll[%d] = %v, naive = %v", d, i, out[i], want)
			}
			// Fused kernels must be bit-identical to SqDist, not merely close.
			if out[i] != SqDist(m.Row(i), q) {
				t.Fatalf("d=%d: SqDistsToAll[%d] not bit-identical to SqDist", d, i)
			}
		}

		outIDs := make([]float64, len(ids))
		SqDistsTo(m, q, ids, outIDs)
		for k, id := range ids {
			if outIDs[k] != SqDist(m.Row(int(id)), q) {
				t.Fatalf("d=%d: SqDistsTo[%d] not bit-identical to SqDist", d, k)
			}
		}

		// Pick eps2 near the median distance so both branches are exercised.
		eps2 := out[n/2]
		var wantFilter []int32
		for i := 0; i < n; i++ {
			if SqDist(m.Row(i), q) <= eps2 {
				wantFilter = append(wantFilter, int32(i))
			}
		}
		gotFilter := FilterWithin(m, q, eps2, nil)
		if !int32Equal(gotFilter, wantFilter) {
			t.Fatalf("d=%d: FilterWithin = %v, want %v", d, gotFilter, wantFilter)
		}
		if got := CountWithin(m, q, eps2, 0); got != len(wantFilter) {
			t.Fatalf("d=%d: CountWithin = %d, want %d", d, got, len(wantFilter))
		}
		if len(wantFilter) >= 2 {
			if got := CountWithin(m, q, eps2, 2); got != 2 {
				t.Fatalf("d=%d: CountWithin(limit=2) = %d, want 2", d, got)
			}
		}

		// Range variant over a random window.
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		var wantRange []int32
		for i := lo; i < hi; i++ {
			if SqDist(m.Row(i), q) <= eps2 {
				wantRange = append(wantRange, int32(i))
			}
		}
		if got := FilterWithinRange(m, q, eps2, lo, hi, nil); !int32Equal(got, wantRange) {
			t.Fatalf("d=%d: FilterWithinRange = %v, want %v", d, got, wantRange)
		}
		if got := CountWithinRange(m, q, eps2, lo, hi, 0); got != len(wantRange) {
			t.Fatalf("d=%d: CountWithinRange = %d, want %d", d, got, len(wantRange))
		}

		// IDs variants.
		var wantIDs []int32
		for _, id := range ids {
			if SqDist(m.Row(int(id)), q) <= eps2 {
				wantIDs = append(wantIDs, id)
			}
		}
		if got := FilterWithinIDs(m, q, eps2, ids, nil); !int32Equal(got, wantIDs) {
			t.Fatalf("d=%d: FilterWithinIDs = %v, want %v", d, got, wantIDs)
		}
		if got := CountWithinIDs(m, q, eps2, ids, 0); got != len(wantIDs) {
			t.Fatalf("d=%d: CountWithinIDs = %d, want %d", d, got, len(wantIDs))
		}

		// Empty inputs stay empty.
		if got := FilterWithinIDs(m, q, eps2, nil, nil); len(got) != 0 {
			t.Fatalf("d=%d: FilterWithinIDs(empty) = %v", d, got)
		}
		if got := CountWithinRange(m, q, eps2, 3, 3, 0); got != 0 {
			t.Fatalf("d=%d: CountWithinRange(empty) = %d", d, got)
		}
	}
}

// TestNormCachedAgainstNaive checks the ‖a‖²+‖q‖²−2a·q path against the
// naive loop within ULP-scale tolerance, including the non-negativity
// clamp.
func TestNormCachedAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 2, 3, 8, 16, 32, 64} {
		n := 40
		m := randMatrix(rng, n, d)
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		norms := NormsIDs(m, ids)
		for i, id := range ids {
			if norms[i] != Norm2(m.Row(int(id))) {
				t.Fatalf("d=%d: NormsIDs[%d] mismatch", d, i)
			}
		}
		q := randVec(rng, d)
		out := make([]float64, n)
		SqDistsToCached(m, q, Norm2(q), ids, norms, out)
		for i := 0; i < n; i++ {
			want := naiveSqDist(m.Row(i), q)
			// The cancellation error of the norm identity scales with the
			// magnitude of the norms, not of the distance.
			tol := 1e-9 * (norms[i] + Norm2(q) + 1)
			if math.Abs(out[i]-want) > tol {
				t.Fatalf("d=%d: cached[%d] = %v, naive = %v (tol %v)", d, i, out[i], want, tol)
			}
			if out[i] < 0 {
				t.Fatalf("d=%d: cached[%d] negative: %v", d, i, out[i])
			}
		}
		// A row measured against itself must clamp to exactly 0 or stay tiny.
		self := m.Row(0)
		selfOut := make([]float64, 1)
		SqDistsToCached(m, self, Norm2(self), ids[:1], norms[:1], selfOut)
		if selfOut[0] < 0 {
			t.Fatalf("self distance negative: %v", selfOut[0])
		}
	}
}

// TestNearestKernels pins the tie-breaking contract: the earliest candidate
// at the minimum distance wins.
func TestNearestKernels(t *testing.T) {
	m := Matrix{Coords: []float64{0, 0, 1, 0, 1, 0, 2, 2}, Dim: 2}
	q := []float64{1, 0}
	// Rows 1 and 2 are duplicates at distance 0; row 1 comes first.
	if best, d2 := Nearest(m, q); best != 1 || d2 != 0 {
		t.Fatalf("Nearest = (%d, %v), want (1, 0)", best, d2)
	}
	if best, _ := Nearest(Matrix{Dim: 2}, q); best != -1 {
		t.Fatalf("Nearest on empty matrix = %d, want -1", best)
	}
	MinSqDistsToAll(m, q, []float64{0.5, 5, 5, 0.5})
}

// TestMinSqDistsToAll checks the fused k-means++ update against per-row
// evaluation.
func TestMinSqDistsToAll(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randMatrix(rng, 30, 5)
	q := randVec(rng, 5)
	cur := make([]float64, 30)
	want := make([]float64, 30)
	for i := range cur {
		cur[i] = rng.Float64() * 100
		want[i] = cur[i]
		if d2 := SqDist(m.Row(i), q); d2 < want[i] {
			want[i] = d2
		}
	}
	MinSqDistsToAll(m, q, cur)
	for i := range cur {
		if cur[i] != want[i] {
			t.Fatalf("MinSqDistsToAll[%d] = %v, want %v", i, cur[i], want[i])
		}
	}
}

// TestDotNormAgainstNaive covers the unrolled Dot and Norm2 kernels.
func TestDotNormAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 0; d <= 64; d++ {
		a := randVec(rng, d)
		b := randVec(rng, d)
		var dot, n2 float64
		for i := range a {
			dot += a[i] * b[i]
			n2 += a[i] * a[i]
		}
		if got := Dot(a, b); math.Abs(got-dot) > ulpTol(dot, d) {
			t.Fatalf("d=%d: Dot = %v, naive = %v", d, got, dot)
		}
		if got := Norm2(a); math.Abs(got-n2) > ulpTol(n2, d) {
			t.Fatalf("d=%d: Norm2 = %v, naive = %v", d, got, n2)
		}
		if got := Norm(a); math.Abs(got-math.Sqrt(n2)) > ulpTol(math.Sqrt(n2), d) {
			t.Fatalf("d=%d: Norm = %v", d, got)
		}
		if got := Dist(a, b); d > 0 && math.Abs(got-math.Sqrt(naiveSqDist(a, b))) > ulpTol(got, d) {
			t.Fatalf("d=%d: Dist = %v", d, got)
		}
	}
}

func int32Equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
