package dist

import "math"

// ExpInPlace replaces every x[k] with math.Exp(x[k]), bit for bit: the
// batched exponential behind the SVDD kernel rows (K = exp(−γ‖a−b‖²)) and
// Model assign. On amd64 with AVX2 and FMA it runs expQuadsAVX, math.Exp's
// own FMA instruction sequence on four lanes (see its lane contract in
// avx_amd64.s). A quad holding a lane outside math.Exp's normal path
// (NaN, ±Inf, overflow, a subnormal result) and the len(x) mod 4 tail call
// math.Exp, which is also the whole path elsewhere and whenever the
// init-time self-check found a mismatch.
func ExpInPlace(x []float64) {
	i := 0
	if hasExpAVX {
		end := len(x) &^ 3
		for i < end {
			i += expQuadsAVX(&x[i], (end-i)>>2) << 2
			if i < end {
				expScalar(x[i : i+4])
				i += 4
			}
		}
	}
	expScalar(x[i:])
}

func expScalar(x []float64) {
	for k, v := range x {
		x[k] = math.Exp(v)
	}
}

// expSelfCheck reports whether expQuadsAVX reproduces ref bit for bit on
// expProbes, every probe in range, so every quad takes the vector lanes.
// hasExpAVX runs it against math.Exp once, at init.
func expSelfCheck(ref func(float64) float64) bool {
	probes := expProbes()
	got := append([]float64(nil), probes...)
	if expQuadsAVX(&got[0], len(got)>>2) != len(got)>>2 {
		return false
	}
	for k, v := range probes {
		if math.Float64bits(got[k]) != math.Float64bits(ref(v)) {
			return false
		}
	}
	return true
}

// expProbes returns the self-check's fixed probe table: 1024 values spread
// over [−708, 709] with scrambled mantissas, a quarter of them in [−1, 0],
// where Gaussian kernel arguments concentrate. Every value has a normal
// result, so the kernel must write every quad. On it math.Exp's non-FMA
// branch differs from the FMA branch in dozens of places.
func expProbes() []float64 {
	p := make([]float64, 1024)
	h := uint64(0x9E3779B97F4A7C15)
	for k := range p {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		u := float64(h>>11) / (1 << 53) // [0, 1)
		if k%4 == 0 {
			p[k] = -u
		} else {
			p[k] = -708 + 1417*u
		}
	}
	return p
}
