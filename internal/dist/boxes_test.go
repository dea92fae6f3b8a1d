package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// boxSpecials are the values the box tests scatter through bounds and
// queries: NaN, ±Inf, −0, the smallest subnormal and the largest finite.
var boxSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, math.MaxFloat64}

// randBoxes draws 64 boxes over d axes in NearBoxes's layout and a query
// among them: boxes of width up to 2 in [0, 12) per axis, so a query is
// inside some boxes and beside others, and with special > 0 about one
// value in special is a boxSpecials value.
func randBoxes(rng *rand.Rand, d, special int) (bounds, q []float64) {
	pick := func(v float64) float64 {
		if special > 0 && rng.Intn(special) == 0 {
			return boxSpecials[rng.Intn(len(boxSpecials))]
		}
		return v
	}
	bounds = make([]float64, 128*d)
	q = make([]float64, d)
	for j := range d {
		for k := range 64 {
			lo := 10 * rng.Float64()
			bounds[128*j+k], bounds[128*j+64+k] = pick(lo), pick(lo+2*rng.Float64())
		}
		q[j] = pick(12 * rng.Float64())
	}
	return bounds, q
}

// nearBox is the test of one box (d lower bounds, then d upper bounds,
// d = len(q)) that NearBoxes makes for each of its boxes: the sum of the
// squared gaps from q to the box, added in axis order, is not above bound.
func nearBox(box, q []float64, bound float64) bool {
	return !(boxSum(box, q) > bound)
}

// boxAt returns box k of bounds in nearBox's layout.
func boxAt(bounds []float64, d, k int) []float64 {
	box := make([]float64, 2*d)
	for j := range d {
		box[j], box[d+j] = bounds[128*j+k], bounds[128*j+64+k]
	}
	return box
}

// boxSum is the sum nearBox compares with its bound.
func boxSum(box, q []float64) float64 {
	s := 0.0
	for j, v := range q {
		g := gap(box[j], box[len(q)+j], v)
		s += g * g
	}
	return s
}

// checkNearBoxes fails t unless NearBoxes, with the AVX dispatch on and
// off, sets exactly the bits of the first in boxes nearBox calls near.
func checkNearBoxes(t testing.TB, bounds, q []float64, bound float64, in int) {
	t.Helper()
	var want uint64
	for k := range in {
		if nearBox(boxAt(bounds, len(q), k), q, bound) {
			want |= 1 << k
		}
	}
	got := NearBoxes(bounds, q, bound, in)
	goGot := pureGo(func() uint64 { return NearBoxes(bounds, q, bound, in) })
	if got != want || goGot != want {
		t.Fatalf("d=%d in=%d bound=%v: NearBoxes %016x, pure Go %016x, per-box nearBox %016x", len(q), in, bound, got, goGot, want)
	}
}

// TestNearBoxesMatchGoOracle is the differential test of the zone-box
// kernel: at every d from 1 to 40 (d mod 4 of every residue, one to three
// passes' worth of axes) and every in from 1 to 64, the dispatch and the
// pure-Go loop must equal nearBox box by box. The bounds are random boxes
// around the query, with NaN, ±Inf, −0, subnormal and MaxFloat64 values in
// the bounds and the query; the bound is a box's exact sum (a tie, which
// is near), the next float below it, 0, −0, −1, ±Inf and NaN. Boxes past
// in hold NaN bounds, which must not set a bit.
func TestNearBoxesMatchGoOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for d := 1; d <= 40; d++ {
		for in := 1; in <= 64; in++ {
			special := 0
			if in%3 == 0 {
				special = 1 + rng.Intn(12)
			}
			bounds, q := randBoxes(rng, d, special)
			if in%5 == 0 {
				for j := range d {
					for k := in; k < 64; k++ {
						bounds[128*j+k], bounds[128*j+64+k] = math.NaN(), math.NaN()
					}
				}
			}
			tie := boxSum(boxAt(bounds, d, rng.Intn(in)), q)
			for _, bound := range []float64{tie, math.Nextafter(tie, math.Inf(-1)), 0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN()} {
				checkNearBoxes(t, bounds, q, bound, in)
			}
		}
	}
}

// TestNearBoxesDoNotAllocate: the box kernel allocates nothing.
func TestNearBoxesDoNotAllocate(t *testing.T) {
	bounds, q := randBoxes(rand.New(rand.NewSource(34)), 8, 0)
	if allocs := testing.AllocsPerRun(20, func() { sinkI += int(NearBoxes(bounds, q, 20, 64) & 1) }); allocs != 0 {
		t.Errorf("NearBoxes allocates %v times per call, want 0", allocs)
	}
}

// FuzzNearBoxes drives the zone-box kernel with fuzzer-chosen bits: the
// raw words, repeated as needed, fill the bounds and then the query, at
// any d from 1 to 40, any in from 1 to 64 and any bound; the dispatch and
// the pure-Go loop must both equal nearBox box by box.
func FuzzNearBoxes(f *testing.F) {
	word := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(8), uint8(64), 2.5, word(0, 1, 0.5, 2, 3, 0.25, 1.5))
	f.Add(uint8(3), uint8(17), math.NaN(), word(math.NaN(), 1, math.Inf(1), math.Inf(-1), 0))
	f.Add(uint8(13), uint8(40), math.Inf(1), word(math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.MaxFloat64))
	f.Add(uint8(1), uint8(1), 0.0, word(1))
	f.Fuzz(func(t *testing.T, d, in uint8, bound float64, raw []byte) {
		vals := make([]float64, max(1, len(raw)/8))
		for i := range len(raw) / 8 {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		dim := 1 + int(d)%40
		bounds, q := make([]float64, 128*dim), make([]float64, dim)
		for i := range bounds {
			bounds[i] = vals[i%len(vals)]
		}
		for j := range q {
			q[j] = vals[(len(bounds)+j)%len(vals)]
		}
		checkNearBoxes(t, bounds, q, bound, 1+(int(in)+63)%64)
	})
}

// BenchmarkNearBoxes times one 64-box word test, the zone-map work of one
// reached word in index.Linear, with the AVX dispatch on and off (the
// pure-Go loop), at d = 8 and 32. The bound is about the median box sum,
// so half the boxes are near.
func BenchmarkNearBoxes(b *testing.B) {
	for _, d := range []int{8, 32} {
		bounds, q := randBoxes(rand.New(rand.NewSource(35)), d, 0)
		sums := make([]float64, 64)
		for k := range sums {
			sums[k] = boxSum(boxAt(bounds, d, k), q)
		}
		slices.Sort(sums)
		bound := sums[32]
		for _, avx := range []bool{true, false} {
			b.Run(fmt.Sprintf("d=%d/avx=%v", d, avx && hasAVX), func(b *testing.B) {
				setAVX(b, avx)
				for i := 0; i < b.N; i++ {
					sinkI += int(NearBoxes(bounds, q, bound, 64) & 1)
				}
			})
		}
	}
}
