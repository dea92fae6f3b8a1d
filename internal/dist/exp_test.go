package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// setExpAVX sets ExpInPlace's kernel dispatch for the rest of t (never on
// where the init-time check left it off) and restores it when t ends.
func setExpAVX(t testing.TB, on bool) {
	saved := hasExpAVX
	hasExpAVX = on && saved
	t.Cleanup(func() { hasExpAVX = saved })
}

// expEdges are the inputs at every boundary of math.Exp's paths: zeros,
// the subnormal-result band, the underflow and overflow edges, the
// largest finite values, infinities and NaN.
var expEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 1e-300, -1e-300, 5e-324,
	-708.39, -708.3964185322641, -708.4, -709, -720, -740, -745.13, -745.1332191019411, -745.2, -746, -1e4,
	709.78, 709.782712893384, 7.09782712893384e+02, 709.7827128933841, 709.79, 710, 1e4,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000001), 709.089565712824, -707.703272, 1023.5 * math.Ln2, -1022.5 * math.Ln2,
}

// checkExp fails t unless ExpInPlace(x) equals math.Exp elementwise, bit
// for bit (NaN payloads included).
func checkExp(t testing.TB, x []float64) {
	t.Helper()
	got := append([]float64(nil), x...)
	ExpInPlace(got)
	for k, v := range x {
		if want := math.Exp(v); math.Float64bits(got[k]) != math.Float64bits(want) {
			t.Fatalf("ExpInPlace(%v) [index %d of %d] = %v (%#x), math.Exp = %v (%#x)",
				v, k, len(x), got[k], math.Float64bits(got[k]), want, math.Float64bits(want))
		}
	}
}

// TestExpInPlaceMatchesMathExp holds ExpInPlace to math.Exp bit for bit,
// with the four-lane kernel on and off: over 2^20 random arguments spanning
// every path, the edge values alone and scattered through otherwise normal
// quads (so each fallback quad and the resumption after it run), and every
// slice length 0–7, so every tail length runs with and without a full quad.
func TestExpInPlaceMatchesMathExp(t *testing.T) {
	for _, vector := range []bool{true, false} {
		t.Run(fmt.Sprintf("vector=%v", vector && hasExpAVX), func(t *testing.T) {
			setExpAVX(t, vector)
			rng := rand.New(rand.NewSource(26))
			x := make([]float64, 1<<20)
			for k := range x {
				switch k % 4 {
				case 0:
					x[k] = -rng.Float64() // the Gaussian kernel's band
				case 1:
					x[k] = -746 + 1456*rng.Float64() // every path
				case 2:
					x[k] = -745.2 + 36.8*rng.Float64() // subnormal results
				default:
					x[k] = -rng.ExpFloat64() * 20
				}
			}
			checkExp(t, x)
			checkExp(t, expEdges)
			mixed := append([]float64(nil), x[:4096]...)
			for _, e := range expEdges {
				mixed[rng.Intn(len(mixed))] = e
			}
			checkExp(t, mixed)
			for n := 0; n <= 7; n++ {
				for rep := 0; rep < 64; rep++ {
					s := make([]float64, n)
					for k := range s {
						if rng.Intn(4) == 0 {
							s[k] = expEdges[rng.Intn(len(expEdges))]
						} else {
							s[k] = -40 * rng.Float64()
						}
					}
					checkExp(t, s)
				}
			}
		})
	}
}

// TestExpSelfCheck pins the dispatch decision: on a CPU with AVX2 and FMA,
// with no CPU feature masked by GODEBUG (math.Exp then takes its FMA
// branch), the kernel must pass its self-check and be on, so a kernel that
// drifts from math.Exp fails here instead of silently falling back; and
// one flipped bit on one probe must fail the check.
func TestExpSelfCheck(t *testing.T) {
	if !hasAVX || !cpuHasAVX2FMA() {
		t.Skip("no AVX2+FMA: ExpInPlace runs math.Exp per value")
	}
	if got := expSelfCheck(math.Exp); got != hasExpAVX {
		t.Fatalf("self-check against math.Exp = %v, hasExpAVX = %v", got, hasExpAVX)
	}
	if !hasExpAVX && !strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Fatal("four-lane exp is off on an AVX2+FMA CPU: the kernel no longer matches math.Exp on the probe table")
	}
	odd := expProbes()[517]
	perturbed := func(x float64) float64 {
		if x == odd {
			return math.Float64frombits(math.Float64bits(math.Exp(x)) ^ 1)
		}
		return math.Exp(x)
	}
	if expSelfCheck(perturbed) {
		t.Fatal("the self-check accepted a reference that differs on one probe")
	}
}

// TestExpSelfCheckRejectsNonFMAExp runs this package's tests again under
// GODEBUG=cpu.fma=off, where math.Exp takes its non-FMA branch: there the
// self-check must switch the kernel off (the child fails otherwise), and
// ExpInPlace must still match math.Exp.
func TestExpSelfCheckRejectsNonFMAExp(t *testing.T) {
	if os.Getenv("DIST_EXP_CHILD") == "1" {
		if hasExpAVX {
			t.Fatal("four-lane exp enabled although math.Exp runs its non-FMA branch")
		}
		return
	}
	if !hasExpAVX {
		t.Skip("four-lane exp off: nothing to switch off")
	}
	if testing.Short() {
		t.Skip("spawns a test process")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^(TestExpSelfCheckRejectsNonFMAExp|TestExpInPlaceMatchesMathExp)$", "-test.count=1")
	cmd.Env = append(os.Environ(), "DIST_EXP_CHILD=1", "GODEBUG=cpu.fma=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// FuzzExpInPlace feeds fuzzer-chosen bit patterns, eight bytes per value,
// to ExpInPlace with the kernel on and off; both must equal math.Exp bit for
// bit.
func FuzzExpInPlace(f *testing.F) {
	word := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(word(0, -1, -2.5, -0.125, 3, -700, -745.1, 709.78))
	f.Add(word(expEdges...))
	f.Add(word(-0.5, math.NaN(), -0.25, -0.75, -1e-3))
	f.Fuzz(func(t *testing.T, raw []byte) {
		x := make([]float64, len(raw)/8)
		for k := range x {
			x[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
		}
		checkExp(t, x)
		setExpAVX(t, false)
		checkExp(t, x)
	})
}

// BenchmarkExpInPlace exponentiates 1024 Gaussian-kernel arguments per op,
// four lanes at a time and one math.Exp per value.
func BenchmarkExpInPlace(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(7))
	src := make([]float64, n)
	for k := range src {
		src[k] = -8 * rng.Float64()
	}
	x := make([]float64, n)
	for _, vector := range []bool{true, false} {
		b.Run(fmt.Sprintf("vector=%v", vector && hasExpAVX), func(b *testing.B) {
			setExpAVX(b, vector)
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				copy(x, src)
				ExpInPlace(x)
			}
			sinkF += x[0]
		})
	}
}
