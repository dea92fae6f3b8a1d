package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randMatrix32 draws a float32 mirror plus its widened float64 master, and
// returns the same rows twice: once carrying the mirror and once as the
// master alone — the pair every equivalence test below compares across.
func randMatrix32(rng *rand.Rand, n, d int) (mirror, master Matrix) {
	c32 := make([]float32, n*d)
	c64 := make([]float64, n*d)
	for i := range c32 {
		c32[i] = float32((rng.Float64() - 0.5) * 200)
		c64[i] = float64(c32[i])
	}
	return Matrix{Coords: c64, Coords32: c32, Dim: d}, Matrix{Coords: c64, Dim: d}
}

// f64Bits and i32Bits flatten kernel outputs for bitwise comparison.
func f64Bits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

func i32Bits(vs []int32) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = uint64(v)
	}
	return out
}

// TestF32KernelsBitIdenticalToWidened is the precision-equivalence table:
// every exported scan and dot kernel must return the same bits on a
// mirror-carrying matrix as on its widened float64 master alone — same ops,
// same order, float64 accumulation throughout (the contract in f32.go). This
// is what lets vec's F32 storage mode keep the repository's determinism
// guarantees. The reference is the master through the pure-Go loops; each
// subtest runs both storages with the AVX dispatch on or off, so no
// assembly path vouches for itself.
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
		mirror, master := randMatrix32(rng, n, d)
		q := randVec(rng, d)
		// Random id subset with duplicates allowed.
		ids := make([]int32, rng.Intn(n)+1)
		for k := range ids {
			ids[k] = int32(rng.Intn(n))
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		all := pureGo(func() []float64 { o := make([]float64, n); SqDistsToAll(master, q, o); return o })
		eps2 := all[n/2] // near the median, so both filter branches fire
		cur := make([]float64, n)
		for i := range cur {
			cur[i] = rng.Float64() * 100
		}

		kernels := []struct {
			name string
			run  func(m Matrix) []uint64
		}{
			{"SqDistsTo", func(m Matrix) []uint64 { o := make([]float64, len(ids)); SqDistsTo(m, q, ids, o); return f64Bits(o) }},
			{"SqDistsToAll", func(m Matrix) []uint64 { o := make([]float64, n); SqDistsToAll(m, q, o); return f64Bits(o) }},
			{"MinSqDistsToAll", func(m Matrix) []uint64 {
				c := append([]float64(nil), cur...)
				MinSqDistsToAll(m, q, c)
				return f64Bits(c)
			}},
			{"FilterWithin", func(m Matrix) []uint64 { return i32Bits(FilterWithin(m, q, eps2, nil)) }},
			{"FilterWithinRange", func(m Matrix) []uint64 { return i32Bits(FilterWithinRange(m, q, eps2, lo, hi, nil)) }},
			{"FilterWithinIDs", func(m Matrix) []uint64 { return i32Bits(FilterWithinIDs(m, q, eps2, ids, nil)) }},
			{"CountWithin", func(m Matrix) []uint64 {
				return []uint64{uint64(CountWithin(m, q, eps2, 0)), uint64(CountWithin(m, q, eps2, 2))}
			}},
			{"CountWithinRange", func(m Matrix) []uint64 {
				return []uint64{uint64(CountWithinRange(m, q, eps2, lo, hi, 0)), uint64(CountWithinRange(m, q, eps2, lo, hi, 3))}
			}},
			{"CountWithinIDs", func(m Matrix) []uint64 {
				return []uint64{uint64(CountWithinIDs(m, q, eps2, ids, 0)), uint64(CountWithinIDs(m, q, eps2, ids, 3))}
			}},
			{"DotsToAll", func(m Matrix) []uint64 { o := make([]float64, n); DotsToAll(m, q, o); return f64Bits(o) }},
			{"DotsToRange", func(m Matrix) []uint64 { o := make([]float64, hi-lo); DotsToRange(m, q, lo, hi, o); return f64Bits(o) }},
		}
		for _, k := range kernels {
			want := pureGo(func() []uint64 { return k.run(master) })
			for _, s := range []struct {
				name string
				m    Matrix
			}{{"mirror", mirror}, {"master", master}} {
				got := k.run(s.m)
				if len(got) != len(want) {
					t.Fatalf("d=%d %s on the %s: %d results, reference %d", d, k.name, s.name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("d=%d %s on the %s: result %d = %#x, reference %#x", d, k.name, s.name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// quant32Err bounds the storage error |float32(v) − v| of one coordinate:
// 2⁻²⁴·|v| (half an ulp, relative) in float32's normal range, and 2⁻¹⁵⁰
// (half the subnormal spacing, absolute) below it, where the relative bound
// fails.
func quant32Err(v float64) float64 {
	return math.Max(math.Abs(v)/(1<<24), 0x1p-150)
}

// quantBound returns an upper bound on |got − exact|, where got is the
// computed ‖a32−q‖² with a32 the round-to-nearest float32 quantization of
// a, and exact the computed ‖a−q‖². Two errors add up:
//   - quantization: per coordinate the storage error is δj ≤
//     quant32Err(aj), and the squared-distance perturbation telescopes to
//     Σ δj·(2|aj−qj| + δj), with a factor for the f64 kernels' own
//     reassociated accumulation;
//   - float64 rounding of each sum: one rounding of each difference, one of
//     each square and at most d−1 of the accumulation leave the computed
//     sum within γ_{d+2} = (d+2)u/(1−(d+2)u), u = 2⁻⁵³, of its exact value,
//     and the exact sums exceed got+exact by at most a factor 1+γ_{d+2}
//     (the 2 below covers it).
func quantBound(a, q []float64, got, exact float64) float64 {
	var bound float64
	for j := range a {
		delta := quant32Err(a[j])
		bound += delta * (2*math.Abs(a[j]-q[j]) + delta)
	}
	const u = 1.0 / (1 << 53)
	nu := float64(len(a)+2) * u
	gamma := nu / (1 - nu)
	return 4*bound + 2*gamma*(got+exact) + 1e-12
}

// TestF32QuantizationErrorBound is the differential check of float32
// storage against the unquantized float64 source: quantizing arbitrary
// doubles once and scanning the mirror must stay within the analytically
// derived bound of the exact f64 result.
func TestF32QuantizationErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(40)
		n := 20 + rng.Intn(60)
		// Exact doubles (not float32-representable), varied magnitude.
		scale := math.Pow(10, float64(rng.Intn(7))-3)
		exactM := Matrix{Coords: make([]float64, n*d), Dim: d}
		quantM := Matrix{Coords: make([]float64, n*d), Coords32: make([]float32, n*d), Dim: d}
		for i := range exactM.Coords {
			exactM.Coords[i] = (rng.Float64() - 0.5) * scale
			quantM.Coords32[i] = float32(exactM.Coords[i])
			quantM.Coords[i] = float64(quantM.Coords32[i])
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = (rng.Float64() - 0.5) * scale
		}

		exact := make([]float64, n)
		quant := make([]float64, n)
		SqDistsToAll(exactM, q, exact)
		SqDistsToAll(quantM, q, quant)
		for i := 0; i < n; i++ {
			if diff, bound := math.Abs(quant[i]-exact[i]), quantBound(exactM.Row(i), q, quant[i], exact[i]); diff > bound {
				t.Fatalf("trial %d: row %d quantization error %v exceeds bound %v", trial, i, diff, bound)
			}
			if s := SqDist(quantM.Row(i), q); s != quant[i] {
				t.Fatalf("trial %d: mirror scan disagrees with SqDist on the widened row", trial)
			}
		}
	}
}

// FuzzSqDist32 drives the widening distance kernel with fuzzer-chosen
// bytes: for any pair of finite vectors, the scan of a one-row matrix
// carrying the float32 mirror must be bit-identical to SqDist on the
// widened row and stay within the derived quantization bound of the exact
// distance.
func FuzzSqDist32(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		a, q, m := fuzzMirrorRow(raw)
		if m.Dim == 0 {
			return
		}
		var one [1]float64
		SqDistsToAll(m, q, one[:])
		got := one[0]
		if want := SqDist(m.Coords, q); got != want {
			t.Fatalf("mirror scan = %v, widened SqDist = %v", got, want)
		}
		exact := SqDist(a, q)
		if bound := quantBound(a, q, got, exact); !math.IsInf(exact, 0) && math.Abs(got-exact) > bound {
			t.Fatalf("quantization error %v exceeds bound %v", math.Abs(got-exact), bound)
		}
	})
}

// fuzzMirrorRow decodes two float64 vectors a and q from raw (8 bytes per
// coordinate), clamped to the finite float32-safe range the vec layer
// enforces, and returns them with a one-row matrix carrying a's float32
// mirror and widened master. Inputs under 16 bytes give a zero Matrix.
func fuzzMirrorRow(raw []byte) (a, q []float64, m Matrix) {
	if len(raw) < 16 {
		return nil, nil, Matrix{}
	}
	d := len(raw) / 16
	a = make([]float64, d)
	q = make([]float64, d)
	m = Matrix{Coords: make([]float64, d), Coords32: make([]float32, d), Dim: d}
	for j := 0; j < d; j++ {
		a[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[j*8:]))
		q[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[(d+j)*8:]))
		if math.IsNaN(a[j]) || math.Abs(a[j]) > math.MaxFloat32/2 {
			a[j] = 0
		}
		if math.IsNaN(q[j]) || math.Abs(q[j]) > math.MaxFloat32/2 {
			q[j] = 0
		}
		m.Coords32[j] = float32(a[j])
		m.Coords[j] = float64(m.Coords32[j])
	}
	return a, q, m
}
