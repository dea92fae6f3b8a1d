package svdd

import (
	"math"
	"math/rand"
	"testing"

	"dbsvec/internal/dist"
	"dbsvec/internal/vec"
)

func precTestDataset(t *testing.T, rng *rand.Rand, n, d int, offset float64) *vec.Dataset {
	t.Helper()
	coords := make([]float64, n*d)
	for i := range coords {
		coords[i] = offset + rng.Float64()*10
	}
	ds, err := vec.NewDataset(coords, d)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestFillDenseBlockedBitIdentical pins the cache-blocked dense fill against
// the straightforward one-row-at-a-time reference: for every storage mode
// and worker count the tiled fill must write exactly the same bits, since
// each entry is a per-pair-independent kernel evaluation.
func TestFillDenseBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		name string
		d    int
		prec vec.Precision
	}{
		{"f64-small-dim", 6, vec.F64},
		{"f64-norms", 24, vec.F64}, // d >= 16: cached-norms rows
		{"f32", 6, vec.F32},
		{"f32-large-dim", 24, vec.F32}, // norms stay off in f32 mode
	} {
		t.Run(tc.name, func(t *testing.T) {
			// n > parallelFillMin and not a multiple of fillBlock, so the
			// parallel path and ragged final tiles are both exercised.
			n := parallelFillMin + 77
			ds := precTestDataset(t, rng, n, tc.d, 0)
			ds, err := ds.ToPrecision(tc.prec)
			if err != nil {
				t.Fatal(err)
			}
			ids := vec.Iota(n)
			sigma := SigmaLowerBound(ds, ids)

			// Reference: same kernelRow routing, one full row remainder at a
			// time (the pre-blocking fill order).
			ref := newKernelMatrix(ds, ids, sigma, 1)
			want := make([]float64, n*n)
			row := make([]float64, n)
			for i := 0; i < n; i++ {
				want[i*n+i] = 1
				if i+1 < n {
					seg := row[:n-i-1]
					ref.kernelRow(i, i+1, seg)
					for k, v := range seg {
						j := i + 1 + k
						want[i*n+j] = v
						want[j*n+i] = v
					}
				}
			}

			for _, workers := range []int{1, 3, 8} {
				km := newKernelMatrix(ds, ids, sigma, workers)
				if km.full == nil {
					t.Fatalf("workers=%d: expected dense fill", workers)
				}
				for idx, got := range *km.full {
					if got != want[idx] {
						t.Fatalf("workers=%d: entry (%d,%d) = %v, reference %v",
							workers, idx/n, idx%n, got, want[idx])
					}
				}
			}
		})
	}
}

// TestF32ModeDisablesNormsIdentity is the regression for the cached-norms
// cancellation hazard: in float32 storage mode the kernel matrix and
// KernelDistances must not route through the ‖a‖²+‖q‖²−2a·q identity even
// from d = 16 on, because on large-magnitude coordinates the
// identity's cancellation error dwarfs the distances float32 mode cares
// about. The plain f32 kernels keep full accuracy: their kernel distances
// must agree with a direct SqDist evaluation to ULP precision where the
// norms identity would be off by orders of magnitude more.
func TestF32ModeDisablesNormsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n, d = 60, 24 // d >= 16, the cached-norms threshold
	// Coordinates near 1e6 with spread ~10: ‖a‖² ≈ 2.4e13 while distances are
	// ~1e3, the regime where the identity loses ~10 digits.
	ds64 := precTestDataset(t, rng, n, d, 1e6)
	ds, err := ds64.ToPrecision(vec.F32)
	if err != nil {
		t.Fatal(err)
	}
	ids := vec.Iota(n)
	sigma := SigmaLowerBound(ds, ids)

	if km := newKernelMatrix(ds, ids, sigma, 2); km.norms != nil {
		t.Fatal("f32-mode kernel matrix cached norms; the identity must be gated off")
	}
	// The F64 view of the same quantized coordinates does use the identity.
	master, err := ds.ToPrecision(vec.F64)
	if err != nil {
		t.Fatal(err)
	}
	if km := newKernelMatrix(master, ids, sigma, 2); km.norms == nil {
		t.Fatal("f64 kernel matrix at d >= 16 should cache norms")
	}

	got := KernelDistances(ds, ids, sigma)
	// Naive reference with plain full-precision distances.
	gamma := 1 / (2 * sigma * sigma)
	s := make([]float64, n)
	var double float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := math.Exp(-dist.SqDist(ds.Point(i), ds.Point(j)) * gamma)
			s[i] += v
		}
	}
	for i := 0; i < n; i++ {
		double += s[i]
	}
	for i := 0; i < n; i++ {
		want := double/float64(n*n) + 1 - 2*s[i]/float64(n)
		if want < 0 {
			want = 0
		}
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("KernelDistances[%d] = %v, plain-kernel reference %v", i, got[i], want)
		}
	}
}

// TestTrainF32MatchesWidenedMaster: below the norms threshold both storage
// modes run the very same float64 arithmetic, so training on float32 storage
// must reproduce the widened-master model bit for bit — support vectors,
// multipliers, radius and all.
func TestTrainF32MatchesWidenedMaster(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n, d = 200, 8
	ds64 := precTestDataset(t, rng, n, d, 0)
	ds32, err := ds64.ToPrecision(vec.F32)
	if err != nil {
		t.Fatal(err)
	}
	master, err := ds32.ToPrecision(vec.F64)
	if err != nil {
		t.Fatal(err)
	}
	ids := vec.Iota(n)
	cfg := func() Config {
		return Config{Nu: 0.1, Times: make([]int, n), Workers: 3}
	}
	m32, err := Train(ds32, ids, cfg())
	if err != nil {
		t.Fatal(err)
	}
	m64, err := Train(master, ids, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if m32.R2 != m64.R2 || m32.Iterations != m64.Iterations {
		t.Fatalf("f32 model (R2=%v, iters=%d) != widened-master model (R2=%v, iters=%d)",
			m32.R2, m32.Iterations, m64.R2, m64.Iterations)
	}
	if len(m32.Alpha) != len(m64.Alpha) {
		t.Fatalf("alpha lengths differ: %d vs %d", len(m32.Alpha), len(m64.Alpha))
	}
	for i := range m32.Alpha {
		if m32.Alpha[i] != m64.Alpha[i] {
			t.Fatalf("alpha[%d]: f32 %v != widened %v", i, m32.Alpha[i], m64.Alpha[i])
		}
	}
}
