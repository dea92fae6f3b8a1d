package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randMatrix32 draws a float32 matrix plus its widened float64 twin — the
// pair every equivalence test below compares across.
func randMatrix32(rng *rand.Rand, n, d int) (Matrix32, Matrix) {
	c32 := make([]float32, n*d)
	c64 := make([]float64, n*d)
	for i := range c32 {
		c32[i] = float32((rng.Float64() - 0.5) * 200)
		c64[i] = float64(c32[i])
	}
	return Matrix32{Coords: c32, Dim: d}, Matrix{Coords: c64, Dim: d}
}

// TestF32KernelsBitIdenticalToWidened is the equivalence contract of this
// file's package comment: every *32 kernel applied to float32 storage must
// return bit-identical results to its f64 counterpart applied to the widened
// rows — same ops, same order, float64 accumulation throughout. This is what
// lets vec's F32 storage mode keep the repository's determinism guarantees.
// The f64 side is always the pure-Go reference; the f32 side runs once with
// the AVX dispatch and once without, so neither assembly path can vouch for
// the other.
func TestF32KernelsBitIdenticalToWidened(t *testing.T) {
	for _, avx := range []bool{true, false} {
		t.Run(fmt.Sprintf("avx=%v", avx), func(t *testing.T) {
			setAVX(t, avx)
			f32MatchesWidened(t)
		})
	}
}

func f32MatchesWidened(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 13, 32, 64} {
		n := 50 + rng.Intn(200) // spans multiple blockSize windows
		m32, m64 := randMatrix32(rng, n, d)
		q := randVec(rng, d)

		// Random id subset with duplicates allowed.
		ids := make([]int32, rng.Intn(n)+1)
		for k := range ids {
			ids[k] = int32(rng.Intn(n))
		}

		for i := 0; i < n; i++ {
			if SqDist32(m32.Row(i), q) != SqDist(m64.Row(i), q) {
				t.Fatalf("d=%d: SqDist32 row %d not bit-identical", d, i)
			}
		}

		all32 := make([]float64, n)
		SqDistsToAll32(m32, q, all32)
		all64 := pureGo(func() []float64 { o := make([]float64, n); SqDistsToAll(m64, q, o); return o })
		for i := range all32 {
			if all32[i] != all64[i] {
				t.Fatalf("d=%d: SqDistsToAll32[%d] = %v, widened = %v", d, i, all32[i], all64[i])
			}
		}

		to32 := make([]float64, len(ids))
		SqDistsTo32(m32, q, ids, to32)
		to64 := pureGo(func() []float64 { o := make([]float64, len(ids)); SqDistsTo(m64, q, ids, o); return o })
		for k := range to32 {
			if to32[k] != to64[k] {
				t.Fatalf("d=%d: SqDistsTo32[%d] not bit-identical", d, k)
			}
		}

		// eps2 near the median so both filter branches fire.
		eps2 := all64[n/2]
		if got, want := FilterWithin32(m32, q, eps2, nil), pureGo(func() []int32 { return FilterWithin(m64, q, eps2, nil) }); !int32Equal(got, want) {
			t.Fatalf("d=%d: FilterWithin32 = %v, want %v", d, got, want)
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		if got, want := FilterWithinRange32(m32, q, eps2, lo, hi, nil), pureGo(func() []int32 { return FilterWithinRange(m64, q, eps2, lo, hi, nil) }); !int32Equal(got, want) {
			t.Fatalf("d=%d: FilterWithinRange32 = %v, want %v", d, got, want)
		}
		if got, want := FilterWithinIDs32(m32, q, eps2, ids, nil), pureGo(func() []int32 { return FilterWithinIDs(m64, q, eps2, ids, nil) }); !int32Equal(got, want) {
			t.Fatalf("d=%d: FilterWithinIDs32 = %v, want %v", d, got, want)
		}
		if got, want := CountWithin32(m32, q, eps2, 0), pureGo(func() int { return CountWithin(m64, q, eps2, 0) }); got != want {
			t.Fatalf("d=%d: CountWithin32 = %d, want %d", d, got, want)
		}
		if got, want := CountWithin32(m32, q, eps2, 2), pureGo(func() int { return CountWithin(m64, q, eps2, 2) }); got != want {
			t.Fatalf("d=%d: CountWithin32(limit) = %d, want %d", d, got, want)
		}
		if got, want := CountWithinRange32(m32, q, eps2, lo, hi, 0), pureGo(func() int { return CountWithinRange(m64, q, eps2, lo, hi, 0) }); got != want {
			t.Fatalf("d=%d: CountWithinRange32 = %d, want %d", d, got, want)
		}
		if got, want := CountWithinIDs32(m32, q, eps2, ids, 0), pureGo(func() int { return CountWithinIDs(m64, q, eps2, ids, 0) }); got != want {
			t.Fatalf("d=%d: CountWithinIDs32 = %d, want %d", d, got, want)
		}

		cur32 := make([]float64, n)
		for i := range cur32 {
			cur32[i] = rng.Float64() * 100
		}
		cur64 := pureGo(func() []float64 { c := append([]float64(nil), cur32...); MinSqDistsToAll(m64, q, c); return c })
		MinSqDistsToAll32(m32, q, cur32)
		for i := range cur32 {
			if cur32[i] != cur64[i] {
				t.Fatalf("d=%d: MinSqDistsToAll32[%d] not bit-identical", d, i)
			}
		}
	}
}

// quantBound returns an upper bound on |got − exact|, where got is the
// computed ‖a32−q‖² with a32 the round-to-nearest float32 quantization of
// a, and exact the computed ‖a−q‖². Two errors add up:
//   - quantization: per coordinate the storage error is δj ≤ ε·|aj|
//     (ε = 2⁻²⁴ relative rounding of float32), and the squared-distance
//     perturbation telescopes to Σ δj·(2|aj−qj| + δj), with a factor for
//     the f64 kernels' own reassociated accumulation;
//   - float64 rounding of each sum: one rounding of each difference, one of
//     each square and at most d−1 of the accumulation leave the computed
//     sum within γ_{d+2} = (d+2)u/(1−(d+2)u), u = 2⁻⁵³, of its exact value,
//     and the exact sums exceed got+exact by at most a factor 1+γ_{d+2}
//     (the 2 below covers it).
func quantBound(a, q []float64, got, exact float64) float64 {
	const eps32 = 1.0 / (1 << 24)
	var bound float64
	for j := range a {
		delta := eps32 * math.Abs(a[j])
		bound += delta * (2*math.Abs(a[j]-q[j]) + delta)
	}
	const u = 1.0 / (1 << 53)
	nu := float64(len(a)+2) * u
	gamma := nu / (1 - nu)
	return 4*bound + 2*gamma*(got+exact) + 1e-12
}

// TestF32QuantizationErrorBound is the differential fuzz of float32 storage
// against the unquantized float64 source: quantizing arbitrary doubles once
// and evaluating with the *32 kernels must stay within the analytically
// derived bound of the exact f64 result for every kernel.
func TestF32QuantizationErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(40)
		n := 20 + rng.Intn(60)
		// Exact doubles (not float32-representable), varied magnitude.
		scale := math.Pow(10, float64(rng.Intn(7))-3)
		m64 := Matrix{Coords: make([]float64, n*d), Dim: d}
		m32 := Matrix32{Coords: make([]float32, n*d), Dim: d}
		for i := range m64.Coords {
			m64.Coords[i] = (rng.Float64() - 0.5) * scale
			m32.Coords[i] = float32(m64.Coords[i])
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = (rng.Float64() - 0.5) * scale
		}

		exact := make([]float64, n)
		quant := make([]float64, n)
		SqDistsToAll(m64, q, exact)
		SqDistsToAll32(m32, q, quant)
		for i := 0; i < n; i++ {
			if diff, bound := math.Abs(quant[i]-exact[i]), quantBound(m64.Row(i), q, quant[i], exact[i]); diff > bound {
				t.Fatalf("trial %d: row %d quantization error %v exceeds bound %v", trial, i, diff, bound)
			}
			if s := SqDist32(m32.Row(i), q); s != quant[i] {
				t.Fatalf("trial %d: SqDist32 disagrees with fused kernel", trial)
			}
		}
	}
}

// FuzzSqDist32 drives the scalar kernel with fuzzer-chosen bytes: any pair
// of finite vectors must satisfy the derived quantization bound and the
// widened bit-identity simultaneously.
func FuzzSqDist32(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 16 {
			return
		}
		d := len(raw) / 16 // 8 bytes per coordinate, two vectors
		a := make([]float64, d)
		q := make([]float64, d)
		for j := 0; j < d; j++ {
			a[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[j*8:]))
			q[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[(d+j)*8:]))
			// Clamp to the finite float32-safe range the vec layer enforces.
			if math.IsNaN(a[j]) || math.Abs(a[j]) > math.MaxFloat32/2 {
				a[j] = 0
			}
			if math.IsNaN(q[j]) || math.Abs(q[j]) > math.MaxFloat32/2 {
				q[j] = 0
			}
		}
		a32 := make([]float32, d)
		widened := make([]float64, d)
		for j := range a {
			a32[j] = float32(a[j])
			widened[j] = float64(a32[j])
		}
		got := SqDist32(a32, q)
		if want := SqDist(widened, q); got != want {
			t.Fatalf("SqDist32 = %v, widened SqDist = %v", got, want)
		}
		exact := SqDist(a, q)
		if bound := quantBound(a, q, got, exact); !math.IsInf(exact, 0) && math.Abs(got-exact) > bound {
			t.Fatalf("quantization error %v exceeds bound %v", math.Abs(got-exact), bound)
		}
	})
}
