package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDotKernelsMatchDot pins the determinism contract for the batched dot
// kernels: DotsToAll / DotsToRange must be bit-identical to per-row Dot calls
// for every row and range.
func TestDotKernelsMatchDot(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 13, 32, 64} {
		n := 50 + rng.Intn(200)
		m := Matrix{Coords: make([]float64, n*d), Dim: d}
		for i := range m.Coords {
			m.Coords[i] = (rng.Float64() - 0.5) * 200
		}
		q := randVec(rng, d)

		all := make([]float64, n)
		DotsToAll(m, q, all)
		for i := 0; i < n; i++ {
			if want := Dot(m.Row(i), q); all[i] != want {
				t.Fatalf("d=%d: DotsToAll[%d] = %v, Dot = %v", d, i, all[i], want)
			}
		}

		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		rng64 := make([]float64, hi-lo)
		DotsToRange(m, q, lo, hi, rng64)
		for k := range rng64 {
			if rng64[k] != all[lo+k] {
				t.Fatalf("d=%d: DotsToRange[%d] = %v, want %v", d, k, rng64[k], all[lo+k])
			}
		}
	}
}

// TestDot32BitIdenticalToWidened extends the f32 equivalence contract to the
// dot kernels: on a matrix carrying a float32 mirror whose float64 master is
// the exact widening, the per-row dot over the mirror and the batched dot
// kernels must match Dot on the master bit for bit, under whichever AVX
// dispatch the host selects.
func TestDot32BitIdenticalToWidened(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 13, 32, 64} {
		n := 50 + rng.Intn(200)
		mirror, master := randMatrix32(rng, n, d)
		q := randVec(rng, d)

		want := make([]float64, n)
		for i := 0; i < n; i++ {
			want[i] = Dot(master.Row(i), q)
			if got := dotRow(mirror.Coords32[i*d:(i+1)*d], q); got != want[i] {
				t.Fatalf("d=%d: float32 row %d dot = %v, widened = %v", d, i, got, want[i])
			}
		}

		all := make([]float64, n)
		DotsToAll(mirror, q, all)
		for i := range all {
			if all[i] != want[i] {
				t.Fatalf("d=%d: DotsToAll[%d] on the mirror = %v, widened = %v", d, i, all[i], want[i])
			}
		}

		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		r := make([]float64, hi-lo)
		DotsToRange(mirror, q, lo, hi, r)
		for k := range r {
			if r[k] != want[lo+k] {
				t.Fatalf("d=%d: DotsToRange[%d] on the mirror not bit-identical", d, k)
			}
		}
	}
}

// TestNorms pins the all-rows norm cache against per-row Norm2.
func TestNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := Matrix{Coords: make([]float64, 37*5), Dim: 5}
	for i := range m.Coords {
		m.Coords[i] = (rng.Float64() - 0.5) * 20
	}
	norms := Norms(m)
	if len(norms) != 37 {
		t.Fatalf("Norms length = %d, want 37", len(norms))
	}
	for i := range norms {
		if want := Norm2(m.Row(i)); norms[i] != want {
			t.Fatalf("Norms[%d] = %v, want %v", i, norms[i], want)
		}
	}
}

// cachedIdentityBound bounds |cached − exact| for the norms identity on one
// row: norms, qNorm and the dot each accumulate O(d) roundings of relative
// size u = 2⁻⁵³, and the final combination cancels absolutely, so the error
// scales with the magnitudes going in, not with the distance coming out:
// (d+4)·u·(‖a‖² + ‖q‖² + 2|a·q|), widened by 4x for slack.
func cachedIdentityBound(na, nq, dot float64, d int) float64 {
	const u = 1.0 / (1 << 26) / (1 << 27) // 2⁻⁵³
	return 4*float64(d+4)*u*(na+nq+2*math.Abs(dot)) + 1e-300
}

// TestCachedIdentityErrorBound is the differential check of the cached path
// against the exact kernels: the ULP-scale divergence the docs promise must
// stay within the analytically derived cancellation bound.
func TestCachedIdentityErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(80)
		n := 10 + rng.Intn(50)
		scale := math.Pow(10, float64(rng.Intn(7))-3)
		m := Matrix{Coords: make([]float64, n*d), Dim: d}
		for i := range m.Coords {
			m.Coords[i] = (rng.Float64() - 0.5) * scale
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = (rng.Float64() - 0.5) * scale
		}
		qNorm := Norm2(q)
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		norms := NormsIDs(m, ids)

		exact := make([]float64, n)
		cached := make([]float64, n)
		SqDistsToAll(m, q, exact)
		SqDistsToCached(m, q, qNorm, ids, norms, cached)
		for i := 0; i < n; i++ {
			bound := cachedIdentityBound(norms[i], qNorm, Dot(m.Row(i), q), d)
			if diff := math.Abs(cached[i] - exact[i]); diff > bound {
				t.Fatalf("trial %d row %d: cached error %v exceeds bound %v", trial, i, diff, bound)
			}
		}
	}
}

// dotQuantBound bounds |a32·q − a·q| where a32 quantizes a to float32: per
// coordinate the storage error is δj ≤ quant32Err(aj) and perturbs the
// product by δj·|qj|, with a factor for the kernels' reassociation. Each of
// the two computed dots also carries its own float64 rounding, within
// γ_d·Σ|aj·qj| (u = 2⁻⁵³) of its exact value — the term that is left when
// the aj are float32 subnormals and the relative quantization bound fails.
func dotQuantBound(a, q []float64) float64 {
	var bound, mag float64
	for j := range a {
		bound += quant32Err(a[j]) * math.Abs(q[j])
		mag += (math.Abs(a[j]) + quant32Err(a[j])) * math.Abs(q[j])
	}
	const u = 1.0 / (1 << 53)
	nu := float64(len(a)) * u
	gamma := nu / (1 - nu)
	return 4*bound + 2*gamma*mag + 1e-12
}

// FuzzDotKernels drives the dot kernels with fuzzer-chosen bytes: for any
// pair of finite vectors, the projection of a one-row matrix carrying the
// float32 mirror must be bit-identical to Dot on the widened row, and stay
// within the derived quantization bound of the exact dot.
func FuzzDotKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		a, q, m := fuzzMirrorRow(raw)
		if m.Dim == 0 {
			return
		}
		var one [1]float64
		DotsToAll(m, q, one[:])
		got := one[0]
		if want := Dot(m.Coords, q); got != want {
			t.Fatalf("mirror DotsToAll = %v, widened Dot = %v", got, want)
		}
		exact := Dot(a, q)
		if bound := dotQuantBound(a, q); !math.IsInf(exact, 0) && math.Abs(got-exact) > bound {
			t.Fatalf("quantization error %v exceeds bound %v", math.Abs(got-exact), bound)
		}
	})
}

// BenchmarkDotsToAll measures the dense projection pass at both storage
// precisions — the numbers behind the dot-kernel table in README.md.
func BenchmarkDotsToAll(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	const n = 1024
	for _, d := range []int{8, 32, 128, 256} {
		m32, m64 := randMatrix32(rng, n, d)
		q := randVec(rng, d)
		out := make([]float64, n)
		b.Run(fmt.Sprintf("f64/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DotsToAll(m64, q, out)
			}
		})
		b.Run(fmt.Sprintf("f32/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DotsToAll(m32, q, out)
			}
		})
		b.Run(fmt.Sprintf("naive/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < n; r++ {
					out[r] = Dot(m64.Row(r), q)
				}
			}
		})
	}
}
