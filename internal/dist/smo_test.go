package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameFloats reports whether a and b agree bit for bit, treating any two
// NaNs as equal: which operand's payload an add propagates depends on the
// register the compiler picks, so payloads are not part of the contract.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// smoPassNaive is SMOPass's definition written as two passes: the update
// over every entry, then the selection with strict comparisons, which keeps
// the first index of each extremum.
func smoPassNaive(f, rowI, rowJ, pu, pd []float64, delta float64, update bool) (up, down int) {
	if update {
		for k := range f {
			f[k] += delta * (rowI[k] - rowJ[k])
		}
	}
	up, down = -1, -1
	upV, downV := math.Inf(1), math.Inf(-1)
	for k := range f {
		if v := f[k] + pu[k]; v < upV {
			upV, up = v, k
		}
		if v := f[k] + pd[k]; v > downV {
			downV, down = v, k
		}
	}
	return up, down
}

// smoCase is one input of the SMO kernels.
type smoCase struct {
	f, rowI, rowJ, pu, pd []float64
	delta                 float64
}

// runSMO runs SMOPass (or SMOSelect) on a copy of c and returns the updated
// f with the selection.
func runSMO(c smoCase, update bool) ([]float64, int, int) {
	f := slices.Clone(c.f)
	var up, down int
	if update {
		up, down = SMOPass(f, c.rowI, c.rowJ, c.pu, c.pd, c.delta)
	} else {
		up, down = SMOSelect(f, c.pu, c.pd)
	}
	return f, up, down
}

// checkSMO fails t unless SMOPass and SMOSelect, with the AVX dispatch on
// and off, agree with smoPassNaive on c: f bit for bit, both indices.
func checkSMO(t testing.TB, name string, c smoCase) {
	t.Helper()
	for _, update := range []bool{true, false} {
		want := slices.Clone(c.f)
		wantUp, wantDown := smoPassNaive(want, c.rowI, c.rowJ, c.pu, c.pd, c.delta, update)
		gotF, gotUp, gotDown := runSMO(c, update)
		var goF []float64
		var goUp, goDown int
		pureGo(func() bool { goF, goUp, goDown = runSMO(c, update); return true })
		for _, r := range []struct {
			path     string
			f        []float64
			up, down int
		}{{"dispatch", gotF, gotUp, gotDown}, {"pure Go", goF, goUp, goDown}} {
			if r.up != wantUp || r.down != wantDown {
				t.Fatalf("%s n=%d update=%v %s: up, down = %d, %d, want %d, %d", name, len(c.f), update, r.path, r.up, r.down, wantUp, wantDown)
			}
			if !sameFloats(r.f, want) {
				t.Fatalf("%s n=%d update=%v %s: f differs from the two-pass loop", name, len(c.f), update, r.path)
			}
		}
	}
}

// randSMOCase draws an input of length n whose values repeat often (so
// extrema tie inside lanes, across lanes and against the tail), with about
// a third of the entries ineligible on each side.
func randSMOCase(rng *rand.Rand, n int) smoCase {
	c := smoCase{delta: rng.Float64()}
	pick := []float64{-1, -0.5, 0, 0.25, 0.5, 1}
	for range n {
		c.f = append(c.f, pick[rng.Intn(len(pick))])
		c.rowI = append(c.rowI, rng.Float64())
		c.rowJ = append(c.rowJ, rng.Float64())
		pu, pd := 0.0, 0.0
		if rng.Intn(3) == 0 {
			pu = math.Inf(1)
		}
		if rng.Intn(3) == 0 {
			pd = math.Inf(-1)
		}
		c.pu, c.pd = append(c.pu, pu), append(c.pd, pd)
	}
	return c
}

// smoLengths are the lengths every SMO kernel test covers: 0…9, and a
// ragged 4k+1…4k+3 tail after several quads.
var smoLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 14, 15, 37, 38, 39, 257, 258, 259}

// TestSMOKernelsMatchGoOracle is the differential test of the SMO pass:
// random inputs with heavy ties at every length, constructed ties inside a
// lane, across lanes and against the scalar tail, all-ineligible biases,
// and NaN, ±Inf and −0 in f and in the rows.
func TestSMOKernelsMatchGoOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, n := range smoLengths {
		for rep := 0; rep < 20; rep++ {
			checkSMO(t, "random", randSMOCase(rng, n))
		}
		if n == 0 {
			continue
		}
		zeros := func() []float64 { return make([]float64, n) }
		fill := func(v float64) []float64 {
			s := zeros()
			for k := range s {
				s[k] = v
			}
			return s
		}
		// Every entry equal: the first index wins both sides.
		flat := smoCase{f: fill(0.5), rowI: zeros(), rowJ: zeros(), pu: zeros(), pd: zeros(), delta: 1}
		checkSMO(t, "flat", flat)
		// The extremum twice in one lane (k and k+4), twice across lanes
		// (k and k+1), and once in a lane with the same value in the tail.
		for _, pair := range [][2]int{{1, 5}, {2, 3}, {0, n - 1}, {n / 2, n - 1}, {n - 2, n - 1}} {
			c := randSMOCase(rng, n)
			for _, k := range pair {
				if k >= 0 && k < n {
					c.f[k], c.rowI[k], c.rowJ[k], c.pu[k], c.pd[k] = -7, 0, 0, 0, math.Inf(-1)
				}
			}
			checkSMO(t, "min tie", c)
			for _, k := range pair {
				if k >= 0 && k < n {
					c.f[k], c.pu[k], c.pd[k] = 7, math.Inf(1), 0
				}
			}
			checkSMO(t, "max tie", c)
		}
		// −0 against +0: equal, so the first index wins whichever sign it has.
		signed := smoCase{f: zeros(), rowI: zeros(), rowJ: zeros(), pu: zeros(), pd: zeros(), delta: 0.5}
		for k := range signed.f {
			if k%3 == 1 {
				signed.f[k] = math.Copysign(0, -1)
			}
		}
		checkSMO(t, "signed zero", signed)
		// All ineligible: the indices stay −1, whatever f holds.
		none := randSMOCase(rng, n)
		for k := range none.pu {
			none.pu[k], none.pd[k] = math.Inf(1), math.Inf(-1)
		}
		none.f[0], none.f[n-1] = math.Inf(-1), math.Inf(1)
		checkSMO(t, "all ineligible", none)
		if up, down := SMOSelect(none.f, none.pu, none.pd); up != -1 || down != -1 {
			t.Fatalf("n=%d: all-ineligible selection = %d, %d, want -1, -1", n, up, down)
		}
		// Non-finite values in f and in the rows: NaN never wins, ±Inf may.
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, math.MaxFloat64}
		for rep := 0; rep < 10; rep++ {
			c := randSMOCase(rng, n)
			for _, s := range [][]float64{c.f, c.rowI, c.rowJ} {
				for k := range s {
					if rng.Intn(3) == 0 {
						s[k] = special[rng.Intn(len(special))]
					}
				}
			}
			checkSMO(t, "special", c)
		}
	}
}

// TestVectorKernelsMatchGoOracle holds Axpy and NegScale to their Go loops
// (AVX on and off) at every SMO length, with NaN, ±Inf, −0 and subnormals in
// both operands and a = ±1 (the column-sum case), a fraction and −0.
func TestVectorKernelsMatchGoOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -2.2e-308, 1e300}
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for k := range v {
			v[k] = rng.NormFloat64()
			if rng.Intn(4) == 0 {
				v[k] = special[rng.Intn(len(special))]
			}
		}
		return v
	}
	for _, n := range smoLengths {
		for _, a := range []float64{1, -1, 0.3, math.Copysign(0, -1), 1e300} {
			x, y := vec(n+3), vec(n) // x may be longer than y
			want := slices.Clone(y)
			for k := range want {
				want[k] += a * x[k]
			}
			got := slices.Clone(y)
			Axpy(a, x, got)
			goGot := pureGo(func() []float64 { g := slices.Clone(y); Axpy(a, x, g); return g })
			if !sameFloats(got, want) || !sameFloats(goGot, want) {
				t.Fatalf("n=%d a=%v: Axpy differs from y[k] += a*x[k]", n, a)
			}

			want = slices.Clone(y)
			for k := range want {
				want[k] = -want[k] * a
			}
			got = slices.Clone(y)
			NegScale(got, a)
			goGot = pureGo(func() []float64 { g := slices.Clone(y); NegScale(g, a); return g })
			if !sameFloats(got, want) || !sameFloats(goGot, want) {
				t.Fatalf("n=%d a=%v: NegScale differs from x[k] = -x[k]*a", n, a)
			}
		}
	}
}

// TestSMOKernelsDoNotAllocate is TestScanKernelsDoNotAllocate for the
// solver kernels: the SMO pass's lane buffer lives on the stack.
func TestSMOKernelsDoNotAllocate(t *testing.T) {
	c := randSMOCase(rand.New(rand.NewSource(32)), 515)
	kernels := map[string]func(){
		"SMOPass":   func() { sinkI += first(SMOPass(c.f, c.rowI, c.rowJ, c.pu, c.pd, 1e-9)) },
		"SMOSelect": func() { sinkI += first(SMOSelect(c.f, c.pu, c.pd)) },
		"Axpy":      func() { Axpy(1e-9, c.rowI, c.f) },
		"NegScale":  func() { NegScale(c.rowJ, 1) },
	}
	for name, run := range kernels {
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, allocs)
		}
	}
}

func first(a, _ int) int { return a }

// FuzzSMOPass drives the SMO pass with fuzzer-chosen bits in f, the rows
// and delta, and fuzzer-chosen eligibility; the dispatch (AVX where the CPU
// has it) and the pure-Go loop must both equal the two-pass definition.
func FuzzSMOPass(f *testing.F) {
	word := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(0.5, uint64(0), word(1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3))
	f.Add(1.0, uint64(0x5555), word(negZero, 0, negZero, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add(math.Inf(1), uint64(0xF0F0F0F0), word(math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1, 1, 1, 1, 0, 0, 0, 0, 2, 2, 2, 2, 3, 3, 3, 3, 4))
	f.Fuzz(func(t *testing.T, delta float64, elig uint64, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		n := len(vals) / 3
		c := smoCase{f: vals[:n], rowI: vals[n : 2*n], rowJ: vals[2*n : 3*n], delta: delta}
		for k := range n {
			pu, pd := 0.0, 0.0
			if elig>>(2*(k%32))&1 != 0 {
				pu = math.Inf(1)
			}
			if elig>>(2*(k%32)+1)&1 != 0 {
				pd = math.Inf(-1)
			}
			c.pu, c.pd = append(c.pu, pu), append(c.pd, pd)
		}
		checkSMO(t, "fuzz", c)
	})
}

// BenchmarkSMOPass times one SMO iteration's O(ñ) work at ñ=512: the fused
// pass with the AVX dispatch on and off, and the two-pass loop it replaced
// (selection over the active list, then the gradient update), every entry
// active.
func BenchmarkSMOPass(b *testing.B) {
	const n = 512
	c := randSMOCase(rand.New(rand.NewSource(33)), n)
	c.delta = 1e-12 // keeps f from drifting over many iterations
	for _, avx := range []bool{true, false} {
		b.Run(fmt.Sprintf("fused/avx=%v", avx && hasAVX), func(b *testing.B) {
			setAVX(b, avx)
			for i := 0; i < b.N; i++ {
				sinkI += first(SMOPass(c.f, c.rowI, c.rowJ, c.pu, c.pd, c.delta))
			}
		})
	}
	b.Run("two-pass", func(b *testing.B) {
		active := make([]int32, n)
		for k := range active {
			active[k] = int32(k)
		}
		f := c.f
		for i := 0; i < b.N; i++ {
			up, down := -1, -1
			upVal, downVal := math.Inf(1), math.Inf(-1)
			for _, kk := range active {
				k := int(kk)
				if c.pu[k] == 0 && f[k] < upVal {
					upVal, up = f[k], k
				}
				if c.pd[k] == 0 && f[k] > downVal {
					downVal, down = f[k], k
				}
			}
			for _, kk := range active {
				k := int(kk)
				f[k] += c.delta * (c.rowI[k] - c.rowJ[k])
			}
			sinkI += up + down
		}
	})
}
