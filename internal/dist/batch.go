package dist

// Matrix is a flat row-major view of n points in Dim dimensions
// (len(Coords) == n*Dim). It is the zero-cost bridge between vec.Dataset and
// the batched kernels below: vec.Dataset.Matrix returns one without copying.
type Matrix struct {
	Coords []float64
	Dim    int
}

// Len returns the number of rows (points).
func (m Matrix) Len() int {
	if m.Dim <= 0 {
		return 0
	}
	return len(m.Coords) / m.Dim
}

// Row returns a read-only view of row i.
func (m Matrix) Row(i int) []float64 {
	base := i * m.Dim
	return m.Coords[base : base+m.Dim : base+m.Dim]
}

// blockSize is the row-block width used by the fused filter/count kernels
// for d >= 4: distances for a block are computed by one workhorse call into
// a stack buffer, then thresholded. The block amortizes the (non-inlinable)
// workhorse call without materializing a full distance slice.
const blockSize = 64

// sqDistsRange writes ‖row(lo+k) − q‖² into out[k] for k in [0, hi-lo): the
// contiguous-row workhorse behind FilterWithin(Range), CountWithin(Range),
// SqDistsToAll and MinSqDistsToAll. d=2 and d=3 run their specializations;
// d >= 4 runs the AVX kernels when the CPU has them, else the pure-Go loop.
// Both perform SqDist's operations in SqDist's order, so batched results are
// bit-identical to per-pair calls whichever path runs.
func sqDistsRange(m Matrix, q []float64, lo, hi int, out []float64) {
	switch m.Dim {
	case 2:
		for i := lo; i < hi; i++ {
			out[i-lo] = SqDist2(m.Row(i), q)
		}
		return
	case 3:
		for i := lo; i < hi; i++ {
			out[i-lo] = SqDist3(m.Row(i), q)
		}
		return
	}
	if hasAVX && m.Dim >= 4 {
		sqDistsRangeAVX(m, q, lo, hi, out)
		return
	}
	sqDistsRangeGo(m, q, lo, hi, out)
}

// sqDistsRangeGo is the pure-Go body of sqDistsRange for any d, and the
// reference the AVX path is tested against. The unrolled body is written
// out inline (not delegated to sqDistGeneric) so the whole batch runs in one
// call frame with q's bounds check hoisted; the accumulation order per row
// is exactly SqDist's.
func sqDistsRangeGo(m Matrix, q []float64, lo, hi int, out []float64) {
	dim := m.Dim
	q = q[:dim]
	base := lo * dim
	for i := lo; i < hi; i++ {
		row := m.Coords[base : base+dim : base+dim]
		base += dim
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= dim; j += 4 {
			d0 := row[j] - q[j]
			d1 := row[j+1] - q[j+1]
			d2 := row[j+2] - q[j+2]
			d3 := row[j+3] - q[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		s := (s0 + s1) + (s2 + s3)
		for ; j < dim; j++ {
			dv := row[j] - q[j]
			s += dv * dv
		}
		out[i-lo] = s
	}
}

// sqDistsRangeAVX is the assembly-dispatched body of sqDistsRange for
// d >= 4: four-row blocks go through sqDistsRows4x64AVX, the up to three
// straggler rows through the single-row kernel, and the Go loop adds each
// row's d mod 4 tail to its (s0+s1)+(s2+s3) partial — the order SqDist
// uses. The reslices below are the bounds checks the assembly cannot make.
func sqDistsRangeAVX(m Matrix, q []float64, lo, hi int, out []float64) {
	dim := m.Dim
	g := dim >> 2
	w := g << 2
	q = q[:dim]
	rows := m.Coords[lo*dim : hi*dim]
	out = out[:hi-lo]
	quads := len(out) >> 2
	if quads > 0 {
		sqDistsRows4x64AVX(&rows[0], &q[0], g, dim, quads, &out[0])
	}
	for k := quads << 2; k < len(out); k++ {
		out[k] = sqDistGroups64AVX(&rows[k*dim], &q[0], g)
	}
	if w == dim {
		return
	}
	for k := range out {
		row := rows[k*dim : (k+1)*dim]
		s := out[k]
		for j := w; j < dim; j++ {
			dv := row[j] - q[j]
			s += dv * dv
		}
		out[k] = s
	}
}

// sqDistsGather is sqDistsRange for an explicit id list: out[k] =
// ‖row(ids[k]) − q‖².
func sqDistsGather(m Matrix, q []float64, ids []int32, out []float64) {
	dim := m.Dim
	switch dim {
	case 2:
		for k, id := range ids {
			out[k] = SqDist2(m.Row(int(id)), q)
		}
		return
	case 3:
		for k, id := range ids {
			out[k] = SqDist3(m.Row(int(id)), q)
		}
		return
	}
	q = q[:dim]
	for k, id := range ids {
		base := int(id) * dim
		row := m.Coords[base : base+dim : base+dim]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= dim; j += 4 {
			d0 := row[j] - q[j]
			d1 := row[j+1] - q[j+1]
			d2 := row[j+2] - q[j+2]
			d3 := row[j+3] - q[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		s := (s0 + s1) + (s2 + s3)
		for ; j < dim; j++ {
			dv := row[j] - q[j]
			s += dv * dv
		}
		out[k] = s
	}
}

// SqDistsTo writes the squared distance from each of the selected rows to q
// into out: out[k] = ‖row(ids[k]) − q‖². out must have length >= len(ids).
// This is the batched one-to-many kernel behind SVDD kernel rows and the
// metrics layer.
func SqDistsTo(m Matrix, q []float64, ids []int32, out []float64) {
	sqDistsGather(m, q, ids, out)
}

// SqDistsToAll writes the squared distance from every row to q into out:
// out[i] = ‖row(i) − q‖². out must have length >= m.Len().
func SqDistsToAll(m Matrix, q []float64, out []float64) {
	sqDistsRange(m, q, 0, m.Len(), out)
}

// MinSqDistsToAll lowers cur[i] to ‖row(i) − q‖² wherever that distance is
// smaller: the fused update step of k-means++ seeding.
func MinSqDistsToAll(m Matrix, q []float64, cur []float64) {
	n := m.Len()
	var block [blockSize]float64
	for s := 0; s < n; s += blockSize {
		e := s + blockSize
		if e > n {
			e = n
		}
		sqDistsRange(m, q, s, e, block[:e-s])
		for k := 0; k < e-s; k++ {
			if block[k] < cur[s+k] {
				cur[s+k] = block[k]
			}
		}
	}
}

// FilterWithin appends to buf the ids (ascending) of all rows within squared
// distance eps2 of q and returns the extended slice. It is the fused
// distance-plus-radius-test kernel behind the linear-scan backends.
func FilterWithin(m Matrix, q []float64, eps2 float64, buf []int32) []int32 {
	return FilterWithinRange(m, q, eps2, 0, m.Len(), buf)
}

// FilterWithinRange is FilterWithin restricted to rows [lo, hi); appended
// ids are absolute row indices. It backs sharded parallel scans.
func FilterWithinRange(m Matrix, q []float64, eps2 float64, lo, hi int, buf []int32) []int32 {
	switch m.Dim {
	case 2:
		for i := lo; i < hi; i++ {
			if SqDist2(m.Row(i), q) <= eps2 {
				buf = append(buf, int32(i))
			}
		}
		return buf
	case 3:
		for i := lo; i < hi; i++ {
			if SqDist3(m.Row(i), q) <= eps2 {
				buf = append(buf, int32(i))
			}
		}
		return buf
	}
	var block [blockSize]float64
	for s := lo; s < hi; s += blockSize {
		e := s + blockSize
		if e > hi {
			e = hi
		}
		sqDistsRange(m, q, s, e, block[:e-s])
		for k := 0; k < e-s; k++ {
			if block[k] <= eps2 {
				buf = append(buf, int32(s+k))
			}
		}
	}
	return buf
}

// FilterWithinIDs appends to buf the members of ids (in given order) whose
// rows lie within squared distance eps2 of q and returns the extended
// slice. It is the leaf-scan kernel of the tree-based backends.
func FilterWithinIDs(m Matrix, q []float64, eps2 float64, ids, buf []int32) []int32 {
	switch m.Dim {
	case 2:
		for _, id := range ids {
			if SqDist2(m.Row(int(id)), q) <= eps2 {
				buf = append(buf, id)
			}
		}
		return buf
	case 3:
		for _, id := range ids {
			if SqDist3(m.Row(int(id)), q) <= eps2 {
				buf = append(buf, id)
			}
		}
		return buf
	}
	var block [blockSize]float64
	for s := 0; s < len(ids); s += blockSize {
		e := s + blockSize
		if e > len(ids) {
			e = len(ids)
		}
		sqDistsGather(m, q, ids[s:e], block[:e-s])
		for k := 0; k < e-s; k++ {
			if block[k] <= eps2 {
				buf = append(buf, ids[s+k])
			}
		}
	}
	return buf
}

// CountWithin returns |{i : ‖row(i) − q‖² <= eps2}|. limit > 0 stops the
// scan as soon as the count reaches limit (the returned count never exceeds
// it); limit <= 0 counts exhaustively.
func CountWithin(m Matrix, q []float64, eps2 float64, limit int) int {
	return CountWithinRange(m, q, eps2, 0, m.Len(), limit)
}

// CountWithinRange is CountWithin restricted to rows [lo, hi).
func CountWithinRange(m Matrix, q []float64, eps2 float64, lo, hi, limit int) int {
	count := 0
	switch m.Dim {
	case 2:
		for i := lo; i < hi; i++ {
			if SqDist2(m.Row(i), q) <= eps2 {
				count++
				if limit > 0 && count >= limit {
					return count
				}
			}
		}
		return count
	case 3:
		for i := lo; i < hi; i++ {
			if SqDist3(m.Row(i), q) <= eps2 {
				count++
				if limit > 0 && count >= limit {
					return count
				}
			}
		}
		return count
	}
	var block [blockSize]float64
	for s := lo; s < hi; s += blockSize {
		e := s + blockSize
		if e > hi {
			e = hi
		}
		sqDistsRange(m, q, s, e, block[:e-s])
		for k := 0; k < e-s; k++ {
			if block[k] <= eps2 {
				count++
				if limit > 0 && count >= limit {
					return count
				}
			}
		}
	}
	return count
}

// CountWithinIDs counts the members of ids whose rows lie within squared
// distance eps2 of q, with the same limit semantics as CountWithin.
func CountWithinIDs(m Matrix, q []float64, eps2 float64, ids []int32, limit int) int {
	count := 0
	switch m.Dim {
	case 2:
		for _, id := range ids {
			if SqDist2(m.Row(int(id)), q) <= eps2 {
				count++
				if limit > 0 && count >= limit {
					return count
				}
			}
		}
		return count
	case 3:
		for _, id := range ids {
			if SqDist3(m.Row(int(id)), q) <= eps2 {
				count++
				if limit > 0 && count >= limit {
					return count
				}
			}
		}
		return count
	}
	var block [blockSize]float64
	for s := 0; s < len(ids); s += blockSize {
		e := s + blockSize
		if e > len(ids) {
			e = len(ids)
		}
		sqDistsGather(m, q, ids[s:e], block[:e-s])
		for k := 0; k < e-s; k++ {
			if block[k] <= eps2 {
				count++
				if limit > 0 && count >= limit {
					return count
				}
			}
		}
	}
	return count
}

// NearestIDs scans the selected rows for the one strictly closer to q than
// bestD and returns its id and squared distance, or (-1, bestD) when none
// beats the bound. Ties keep the earliest candidate, matching the
// deterministic leaf scans of the tree backends.
func NearestIDs(m Matrix, q []float64, ids []int32, bestD float64) (int32, float64) {
	best := int32(-1)
	for _, id := range ids {
		if d2 := SqDist(m.Row(int(id)), q); d2 < bestD {
			best, bestD = id, d2
		}
	}
	return best, bestD
}

// Nearest returns the index of the row closest to q and its squared
// distance, scanning rows in ascending order with strict-improvement ties
// (the first minimum wins). It returns (-1, 0) for an empty matrix.
func Nearest(m Matrix, q []float64) (int, float64) {
	n := m.Len()
	if n == 0 {
		return -1, 0
	}
	best := 0
	bestD := SqDist(m.Row(0), q)
	for i := 1; i < n; i++ {
		if d2 := SqDist(m.Row(i), q); d2 < bestD {
			best, bestD = i, d2
		}
	}
	return best, bestD
}
