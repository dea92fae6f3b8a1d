package dist

import "math"

// Box tests of index.Linear's zone map. They are not distances: each sums
// the squared gaps from a query to an axis-aligned box, a lower bound on the
// distance from the query to every point in the box, up to the rounding the
// caller's bound allows for. The test is written once as a pure-Go loop
// that defines the result, with an AVX body that reproduces it bit for bit
// (avx_amd64.s).

// NearBoxes tests the first in of 64 boxes stored axis-major: for each
// axis j of q, the 64 boxes' lower bounds at bounds[128·j:128·j+64] and
// their upper bounds after them. in must be in 1..64. Bit k of the result
// is set when box k may hold a point within bound of q: when the sum of the
// squared gaps from q to the box, added in axis order, is not above bound.
// A NaN sum (a NaN coordinate or bound, or ∞−∞) sets the bit. The bits from
// in on are clear.
//
// On amd64 with AVX the assembly body tests 16 boxes per pass, four to a
// YMM register, with the Go loop's operations in its order (VSUBPD, VANDPD
// for the absolute value, VADDPD, VMULPD, never FMA) and a VCMPPD NGT_UQ
// verdict, which is !(s > bound) with a NaN sum or bound near.
func NearBoxes(bounds, q []float64, bound float64, in int) uint64 {
	bounds = bounds[:128*len(q)]
	if hasAVX && len(q) > 0 {
		return nearBoxesAVX(&bounds[0], &q[0], len(q), (in+15)>>4, bound) & (^uint64(0) >> (64 - in))
	}
	return nearBoxesGo(bounds, q, bound, in)
}

// nearBoxesGo is NearBoxes's pure-Go loop: one axis at a time over all 64
// boxes, so the boxes' sums do not wait on each other.
func nearBoxesGo(bounds, q []float64, bound float64, in int) uint64 {
	var acc [64]float64
	for j, v := range q {
		lo, hi := (*[64]float64)(bounds[128*j:]), (*[64]float64)(bounds[128*j+64:])
		for k := range acc {
			g := gap(lo[k], hi[k], v)
			acc[k] += g * g
		}
	}
	var set uint64
	for k, s := range acc[:in] {
		if !(s > bound) {
			set |= 1 << k
		}
	}
	return set
}

// gap is the distance from v to [lo, hi] on one axis, max(lo−v, v−hi, 0),
// taken without a branch: at most one of the differences is positive, and
// x+|x| is exactly 2x or 0. It rounds no larger than the difference from v
// to any coordinate in [lo, hi] does.
func gap(lo, hi, v float64) float64 {
	g, h := lo-v, v-hi
	return 0.5 * ((g + math.Abs(g)) + (h + math.Abs(h)))
}
