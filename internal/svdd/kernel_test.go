package svdd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dbsvec/internal/dist"
	"dbsvec/internal/vec"
)

// gatherKernelRow writes row i of the kernel matrix of ids into out the way
// rows were computed before the targets were packed, kept as the reference:
// every target row gathered by id from the whole dataset (through the
// cached-norms identity when norms is set) and one math.Exp per entry.
func gatherKernelRow(ds *vec.Dataset, ids []int32, gamma float64, norms []float64, i int, out []float64) {
	m := ds.Matrix()
	q := ds.Point(int(ids[i]))
	if norms != nil {
		dist.SqDistsToCached(m, q, norms[i], ids, norms, out)
	} else {
		dist.SqDistsTo(m, q, ids, out)
	}
	for j, d2 := range out {
		out[j] = math.Exp(-d2 * gamma)
	}
	out[i] = 1
}

// scatteredTargets returns a dataset of 3n points at precision prec and n
// of its ids in random order, so the packed copy really reorders rows.
func scatteredTargets(t testing.TB, n, d int, prec vec.Precision, seed int64) (*vec.Dataset, []int32) {
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, 3*n*d)
	for i := range coords {
		coords[i] = rng.NormFloat64() * 3
	}
	copy(coords[d:2*d], coords[:d]) // a duplicate point: distance exactly 0
	ds, err := vec.NewDataset(coords, d)
	if err != nil {
		t.Fatal(err)
	}
	if ds, err = ds.ToPrecision(prec); err != nil {
		t.Fatal(err)
	}
	ids := make([]int32, n)
	for k, p := range rng.Perm(3 * n)[:n] {
		ids[k] = int32(p)
	}
	ids[0], ids[1] = 0, 1
	return ds, ids
}

// TestPackedRowsMatchGatherRows pins the packed kernel rows to the gathered
// ones bit for bit, on every path that computes an entry: the dense fill
// (parallel, ragged tiles), the adaptive-weights pivot batch, lazy rows the
// solver touches one at a time, and the scalar at fallback, at both storage
// precisions and on both sides of the cached-norms threshold (d = 16).
func TestPackedRowsMatchGatherRows(t *testing.T) {
	for _, prec := range []vec.Precision{vec.F64, vec.F32} {
		for _, d := range []int{2, 3, 5, 8, 16, 17} {
			for _, n := range []int{weightsExactCap - 56, weightsExactCap + 44} {
				t.Run(fmt.Sprintf("%v/d=%d/n=%d", prec, d, n), func(t *testing.T) {
					ds, ids := scatteredTargets(t, n, d, prec, int64(d*1000+n))
					sigma := SigmaLowerBound(ds, ids)
					km := newKernelMatrix(ds, ids, sigma, 2)
					defer releaseMatrix(km)
					want := make([][]float64, n)
					for i := range want {
						want[i] = make([]float64, n)
						gatherKernelRow(ds, ids, km.gamma, km.norms, i, want[i])
					}
					check := func(path string, i int, got []float64) {
						t.Helper()
						for j := range got {
							if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
								t.Fatalf("%s: K(%d,%d) = %v, gathered %v", path, i, j, got[j], want[i][j])
							}
						}
					}
					if km.full != nil {
						for i := 0; i < n; i++ {
							check("dense", i, km.row(i))
						}
						return
					}

					// at on an empty cache: every entry by the scalar fallback.
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							if got := km.at(i, j); math.Float64bits(got) != math.Float64bits(want[i][j]) {
								t.Fatalf("at: K(%d,%d) = %v, gathered %v", i, j, got, want[i][j])
							}
						}
					}
					pivots := make([]int, 0, n/3)
					for p := 0; p < n; p += 3 {
						pivots = append(pivots, p)
					}
					km.fillRows(pivots, 2)
					for _, p := range pivots {
						check("pivot", p, *km.rows[p])
					}
					for i := 0; i < n; i++ {
						check("lazy", i, km.row(i))
					}
				})
			}
		}
	}
}

// BenchmarkKernelRow times one full kernel row, ñ entries, at d = 8: the
// packed rows with the batched exp (the row every training computes) next
// to the per-id gather with one math.Exp per entry that they replace.
func BenchmarkKernelRow(b *testing.B) {
	for _, prec := range []vec.Precision{vec.F64, vec.F32} {
		for _, n := range []int{256, 1024} {
			ds, ids := scatteredTargets(b, n, 8, prec, 5)
			km := newKernelMatrix(ds, ids, SigmaLowerBound(ds, ids), 1)
			out := make([]float64, n)
			b.Run(fmt.Sprintf("%v/n=%d/packed", prec, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					km.kernelRow(i%n, 0, out)
				}
			})
			b.Run(fmt.Sprintf("%v/n=%d/gather", prec, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gatherKernelRow(ds, ids, km.gamma, km.norms, i%n, out)
				}
			})
			releaseMatrix(km)
		}
	}
}
