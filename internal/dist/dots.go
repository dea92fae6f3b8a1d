package dist

import "unsafe"

// Batched dot-product kernels: the projection layer of the rproj and lsh
// backends. They follow the determinism contract: per row they perform
// exactly the same float64 operations in the same order as Dot, so batched
// projections are bit-identical to per-pair calls — that is what lets
// parallel projection passes shard rows across workers without changing a
// single bit of the result. Like the scan kernels they stream the float32
// mirror when the matrix carries one, and run the AVX kernels for d >= 4
// where the CPU has them.

// DotsToAll writes the dot product of every row with q into out:
// out[i] = row(i)·q. out must have length >= m.Len(). This is the dense
// matrix-vector product behind batch hashing: projecting a whole dataset
// onto one direction is a single call.
func DotsToAll(m Matrix, q []float64, out []float64) {
	DotsToRange(m, q, 0, m.Len(), out)
}

// DotsToRange is DotsToAll restricted to rows [lo, hi), writing
// row(lo+k)·q into out[k]. It backs sharded parallel projection passes:
// workers own disjoint row ranges and disjoint out windows, and per-row
// bit-identity to Dot makes the shard count invisible in the result.
func DotsToRange(m Matrix, q []float64, lo, hi int, out []float64) {
	if m.Coords32 != nil {
		dotsRange(m.Coords32, m.Dim, q, lo, hi, out)
		return
	}
	dotsRange(m.Coords, m.Dim, q, lo, hi, out)
}

// dotRow is Dot over either storage, in Dot's accumulation order.
func dotRow[E elem](a []E, q []float64) float64 {
	q = q[:len(a)]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(a); j += 4 {
		s0 += float64(a[j]) * q[j]
		s1 += float64(a[j+1]) * q[j+1]
		s2 += float64(a[j+2]) * q[j+2]
		s3 += float64(a[j+3]) * q[j+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; j < len(a); j++ {
		s += float64(a[j]) * q[j]
	}
	return s
}

// dotTail adds the d mod 4 tail of row a (coordinates from w on) to the AVX
// partial s, in Dot's order.
func dotTail[E elem](a []E, q []float64, w int, s float64) float64 {
	for j := w; j < len(a); j++ {
		s += float64(a[j]) * q[j]
	}
	return s
}

// dotsRange writes row(lo+k)·q into out[k] for k in [0, hi-lo), with the
// dispatch shape of sqDistsRange.
func dotsRange[E elem](c []E, dim int, q []float64, lo, hi int, out []float64) {
	if !hasAVX || dim < 4 {
		for i := lo; i < hi; i++ {
			out[i-lo] = dotRow(row(c, dim, i), q)
		}
		return
	}
	g := dim >> 2
	w := g << 2
	q = q[:dim]
	rows := c[lo*dim : hi*dim]
	out = out[:hi-lo]
	quads := len(out) >> 2
	if quads > 0 {
		if is32[E]() {
			dotsRows4x32AVX((*float32)(unsafe.Pointer(&rows[0])), &q[0], g, dim, quads, &out[0])
		} else {
			dotsRows4x64AVX((*float64)(unsafe.Pointer(&rows[0])), &q[0], g, dim, quads, &out[0])
		}
	}
	for k := quads << 2; k < len(out); k++ {
		out[k] = dotGroupsAVX(&rows[k*dim], &q[0], g)
	}
	if w == dim {
		return
	}
	for k := range out {
		out[k] = dotTail(row(rows, dim, k), q, w, out[k])
	}
}

// Norms returns ‖row(i)‖² for every row of the master: the cache behind
// rproj's cell-centroid bounds.
func Norms(m Matrix) []float64 {
	n := m.Len()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = Norm2(m.Row(i))
	}
	return out
}
