package dist

import "math"

// Vector kernels of the SVDD solver. They are not distances: they are the
// O(ñ) loops one SMO training runs per iteration and per row, each written
// once as a pure-Go loop that defines its result and, on amd64 with AVX, as
// an assembly body that reproduces the loop bit for bit (avx_amd64.s). Every
// entry is an elementwise VSUBPD/VMULPD/VADDPD of the loop's operands (the
// negation a sign-bit VXORPD), never FMA, so only the instruction count
// changes. The len mod 4 tail runs the Go loop.

// Axpy adds a·x[k] to y[k] for every k < len(y): y[k] += a*x[k], the
// multiply rounded before the add. x must hold at least len(y) values. With
// a = 1 the multiply is exact, so Axpy(1, x, y) is the column-wise sum
// y[k] += x[k].
func Axpy(a float64, x, y []float64) {
	x = x[:len(y)]
	k := 0
	if hasAVX && len(y) >= 4 {
		k = len(y) &^ 3
		axpyAVX(a, &x[0], &y[0], k>>2)
	}
	for ; k < len(y); k++ {
		y[k] += a * x[k]
	}
}

// NegScale replaces every x[k] with −x[k]·a: the negation is exact, then one
// rounded multiply. The SVDD kernel rows turn squared distances into
// exponents with it (−d²·γ).
func NegScale(x []float64, a float64) {
	k := 0
	if hasAVX && len(x) >= 4 {
		k = len(x) &^ 3
		negScaleAVX(&x[0], a, k>>2)
	}
	for ; k < len(x); k++ {
		x[k] = -x[k] * a
	}
}

// SMOPass is one SMO iteration's pass over the gradient f: it adds
// delta·(rowI[k]−rowJ[k]) to every f[k] (the difference, then the multiply,
// then the add, each rounded) and, on the updated values, returns up, the
// first index of the smallest f[k]+pu[k], and down, the first index of the
// largest f[k]+pd[k]. pu and pd are eligibility biases: 0 where the
// multiplier may grow (pu) or fall (pd), +Inf in pu and −Inf in pd where
// it may not, so an ineligible entry never wins (its sum is ±Inf or NaN).
// Only sums below +Inf compete for up and above −Inf for down, and NaN never
// compares, so up or down is −1 when nothing qualifies. rowI, rowJ, pu and
// pd must hold at least len(f) values.
//
// Tie rule: the first index wins, as in a sequential scan with a strict
// comparison. The AVX body keeps, per lane, the first index of that lane's
// extremum (lane l sees the indices k ≡ l mod 4 in ascending order); the
// four lanes then reduce by value, and among equal values (−0 equals +0) by
// the smaller index, before the tail joins with the strict comparison.
func SMOPass(f, rowI, rowJ, pu, pd []float64, delta float64) (up, down int) {
	n := len(f)
	rowI, rowJ, pu, pd = rowI[:n], rowJ[:n], pu[:n], pd[:n]
	k := 0
	up, down = -1, -1
	upV, downV := math.Inf(1), math.Inf(-1)
	if hasAVX && n >= 4 {
		var lanes [16]float64
		k = n &^ 3
		smoPassAVX(&f[0], &rowI[0], &rowJ[0], &pu[0], &pd[0], delta, k>>2, &lanes)
		up, upV, down, downV = reduceLanes(&lanes)
	}
	for ; k < n; k++ {
		f[k] += delta * (rowI[k] - rowJ[k])
		if v := f[k] + pu[k]; v < upV {
			upV, up = v, k
		}
		if v := f[k] + pd[k]; v > downV {
			downV, down = v, k
		}
	}
	return up, down
}

// SMOSelect is SMOPass without the update: the selection over f as it is.
func SMOSelect(f, pu, pd []float64) (up, down int) {
	n := len(f)
	pu, pd = pu[:n], pd[:n]
	k := 0
	up, down = -1, -1
	upV, downV := math.Inf(1), math.Inf(-1)
	if hasAVX && n >= 4 {
		var lanes [16]float64
		k = n &^ 3
		smoSelectAVX(&f[0], &pu[0], &pd[0], k>>2, &lanes)
		up, upV, down, downV = reduceLanes(&lanes)
	}
	for ; k < n; k++ {
		if v := f[k] + pu[k]; v < upV {
			upV, up = v, k
		}
		if v := f[k] + pd[k]; v > downV {
			downV, down = v, k
		}
	}
	return up, down
}

// reduceLanes joins the four lanes the SMO kernels leave in lanes: the
// lane minima, their indices, the lane maxima and their indices, four
// values each, an index of −1 marking a lane where nothing qualified. A
// lane's qualifying minimum is below +Inf (maximum above −Inf), so it beats
// the empty start; equal values go to the smaller index.
func reduceLanes(lanes *[16]float64) (up int, upV float64, down int, downV float64) {
	up, down = -1, -1
	upV, downV = math.Inf(1), math.Inf(-1)
	for l := 0; l < 4; l++ {
		if i := int(lanes[4+l]); i >= 0 && (lanes[l] < upV || lanes[l] == upV && i < up) {
			up, upV = i, lanes[l]
		}
		if i := int(lanes[12+l]); i >= 0 && (lanes[8+l] > downV || lanes[8+l] == downV && i < down) {
			down, downV = i, lanes[8+l]
		}
	}
	return up, upV, down, downV
}
