package dist

// Float32 storage kernels: the mixed-precision half of the distance layer.
// Points are *stored* as float32 (halving the bytes every memory-bound scan
// streams) but every arithmetic step runs in float64: coordinates are widened
// on load, differences, squares and accumulations are all double precision.
//
// Equivalence contract: each kernel below performs, per row, exactly the same
// float64 operations in exactly the same order as its f64 counterpart applied
// to the widened row (float64(row[j]) for every coordinate). A dataset that
// keeps a float64 master equal to the widened mirror (vec's F32 storage mode
// does; quantization happens once, at dataset construction) therefore gets
// bit-identical results from either path — the f32 kernels are purely a
// bandwidth optimization, never an extra rounding step. That is what keeps
// the repository's determinism story (index backends vs the linear oracle,
// parallel vs serial fills) intact in float32 mode.
//
// The cached-norms identity of norms.go is deliberately NOT mirrored here:
// ‖a‖²+‖q‖²−2a·q cancels catastrophically when norms are large relative to
// the distance, and float32 storage is exactly the regime (large-magnitude
// embeddings) where that bites. Float32-mode callers must use the plain
// kernels; vec gates the norms path to float64 storage.

// Matrix32 is a flat row-major view of n points in Dim dimensions stored as
// float32 (len(Coords) == n*Dim): the float32 sibling of Matrix.
type Matrix32 struct {
	Coords []float32
	Dim    int
}

// Len returns the number of rows (points).
func (m Matrix32) Len() int {
	if m.Dim <= 0 {
		return 0
	}
	return len(m.Coords) / m.Dim
}

// Row returns a read-only view of row i.
func (m Matrix32) Row(i int) []float32 {
	base := i * m.Dim
	return m.Coords[base : base+m.Dim : base+m.Dim]
}

// SqDist32 returns ‖a−q‖² with a stored as float32 and all arithmetic in
// float64; bit-identical to SqDist(widen(a), q).
func SqDist32(a []float32, q []float64) float64 {
	switch len(a) {
	case 2:
		return sqDist232(a, q)
	case 3:
		return sqDist332(a, q)
	}
	return sqDistGeneric32(a, q)
}

// sqDist232 mirrors SqDist2 with float32 loads.
func sqDist232(a []float32, q []float64) float64 {
	d0 := float64(a[0]) - q[0]
	d1 := float64(a[1]) - q[1]
	return d0*d0 + d1*d1
}

// sqDist332 mirrors SqDist3 with float32 loads.
func sqDist332(a []float32, q []float64) float64 {
	d0 := float64(a[0]) - q[0]
	d1 := float64(a[1]) - q[1]
	d2 := float64(a[2]) - q[2]
	return d0*d0 + d1*d1 + d2*d2
}

// sqDistGeneric32 mirrors sqDistGeneric: same 4-way unroll, same
// accumulator-combine order, float32 loads widened per element. On amd64
// with AVX the unrolled body dispatches to assembly (one accumulator lane
// per scalar partial sum — bit-identical, see avx_amd64.s).
func sqDistGeneric32(a []float32, q []float64) float64 {
	n := len(a)
	q = q[:n]
	var s float64
	i := 0
	if hasAVX && n >= 4 {
		g := n >> 2
		s = sqDistGroups32AVX(&a[0], &q[0], g)
		i = g << 2
	} else {
		var s0, s1, s2, s3 float64
		for ; i+4 <= n; i += 4 {
			d0 := float64(a[i]) - q[i]
			d1 := float64(a[i+1]) - q[i+1]
			d2 := float64(a[i+2]) - q[i+2]
			d3 := float64(a[i+3]) - q[i+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		s = (s0 + s1) + (s2 + s3)
	}
	for ; i < n; i++ {
		dv := float64(a[i]) - q[i]
		s += dv * dv
	}
	return s
}

// sqDistsRange32 mirrors sqDistsRange over float32 rows.
func sqDistsRange32(m Matrix32, q []float64, lo, hi int, out []float64) {
	dim := m.Dim
	switch dim {
	case 2:
		for i := lo; i < hi; i++ {
			out[i-lo] = sqDist232(m.Row(i), q)
		}
		return
	case 3:
		for i := lo; i < hi; i++ {
			out[i-lo] = sqDist332(m.Row(i), q)
		}
		return
	}
	q = q[:dim]
	if hasAVX && dim >= 4 {
		sqDistsRangeAVX32(m, q, lo, hi, out)
		return
	}
	base := lo * dim
	for i := lo; i < hi; i++ {
		row := m.Coords[base : base+dim : base+dim]
		base += dim
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= dim; j += 4 {
			d0 := float64(row[j]) - q[j]
			d1 := float64(row[j+1]) - q[j+1]
			d2 := float64(row[j+2]) - q[j+2]
			d3 := float64(row[j+3]) - q[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		s := (s0 + s1) + (s2 + s3)
		for ; j < dim; j++ {
			dv := float64(row[j]) - q[j]
			s += dv * dv
		}
		out[i-lo] = s
	}
}

// sqDistsRangeAVX32 is the assembly-dispatched body of sqDistsRange32:
// four-row blocks go through sqDistsRows4x32AVX (independent accumulators
// hide the FP-add latency), stragglers and dims that are not a multiple of
// four go through the single-row kernel plus a scalar tail.
func sqDistsRangeAVX32(m Matrix32, q []float64, lo, hi int, out []float64) {
	dim := m.Dim
	g := dim >> 2
	w := g << 2
	base := lo * dim
	i := lo
	if w == dim {
		if quads := (hi - lo) >> 2; quads > 0 {
			sqDistsRows4x32AVX(&m.Coords[base], &q[0], g, quads, &out[0])
			i += quads << 2
			base = i * dim
		}
	}
	for ; i < hi; i++ {
		row := m.Coords[base : base+dim : base+dim]
		base += dim
		s := sqDistGroups32AVX(&row[0], &q[0], g)
		for j := w; j < dim; j++ {
			dv := float64(row[j]) - q[j]
			s += dv * dv
		}
		out[i-lo] = s
	}
}

// sqDistsGather32 mirrors sqDistsGather over float32 rows.
func sqDistsGather32(m Matrix32, q []float64, ids []int32, out []float64) {
	dim := m.Dim
	switch dim {
	case 2:
		for k, id := range ids {
			out[k] = sqDist232(m.Row(int(id)), q)
		}
		return
	case 3:
		for k, id := range ids {
			out[k] = sqDist332(m.Row(int(id)), q)
		}
		return
	}
	q = q[:dim]
	if hasAVX && dim >= 4 {
		g := dim >> 2
		w := g << 2
		for k, id := range ids {
			base := int(id) * dim
			row := m.Coords[base : base+dim : base+dim]
			s := sqDistGroups32AVX(&row[0], &q[0], g)
			for j := w; j < dim; j++ {
				dv := float64(row[j]) - q[j]
				s += dv * dv
			}
			out[k] = s
		}
		return
	}
	for k, id := range ids {
		base := int(id) * dim
		row := m.Coords[base : base+dim : base+dim]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= dim; j += 4 {
			d0 := float64(row[j]) - q[j]
			d1 := float64(row[j+1]) - q[j+1]
			d2 := float64(row[j+2]) - q[j+2]
			d3 := float64(row[j+3]) - q[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		s := (s0 + s1) + (s2 + s3)
		for ; j < dim; j++ {
			dv := float64(row[j]) - q[j]
			s += dv * dv
		}
		out[k] = s
	}
}

// SqDistsTo32 is SqDistsTo over float32 rows: out[k] = ‖row(ids[k]) − q‖².
func SqDistsTo32(m Matrix32, q []float64, ids []int32, out []float64) {
	sqDistsGather32(m, q, ids, out)
}

// SqDistsToAll32 is SqDistsToAll over float32 rows.
func SqDistsToAll32(m Matrix32, q []float64, out []float64) {
	sqDistsRange32(m, q, 0, m.Len(), out)
}

// MinSqDistsToAll32 is MinSqDistsToAll over float32 rows.
func MinSqDistsToAll32(m Matrix32, q []float64, cur []float64) {
	n := m.Len()
	var block [blockSize]float64
	for s := 0; s < n; s += blockSize {
		e := s + blockSize
		if e > n {
			e = n
		}
		sqDistsRange32(m, q, s, e, block[:e-s])
		for k := 0; k < e-s; k++ {
			if block[k] < cur[s+k] {
				cur[s+k] = block[k]
			}
		}
	}
}

// FilterWithin32 is FilterWithin over float32 rows.
func FilterWithin32(m Matrix32, q []float64, eps2 float64, buf []int32) []int32 {
	return FilterWithinRange32(m, q, eps2, 0, m.Len(), buf)
}

// FilterWithinRange32 is FilterWithinRange over float32 rows.
func FilterWithinRange32(m Matrix32, q []float64, eps2 float64, lo, hi int, buf []int32) []int32 {
	switch m.Dim {
	case 2:
		for i := lo; i < hi; i++ {
			if sqDist232(m.Row(i), q) <= eps2 {
				buf = append(buf, int32(i))
			}
		}
		return buf
	case 3:
		for i := lo; i < hi; i++ {
			if sqDist332(m.Row(i), q) <= eps2 {
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
		sqDistsRange32(m, q, s, e, block[:e-s])
		for k := 0; k < e-s; k++ {
			if block[k] <= eps2 {
				buf = append(buf, int32(s+k))
			}
		}
	}
	return buf
}

// FilterWithinIDs32 is FilterWithinIDs over float32 rows.
func FilterWithinIDs32(m Matrix32, q []float64, eps2 float64, ids, buf []int32) []int32 {
	switch m.Dim {
	case 2:
		for _, id := range ids {
			if sqDist232(m.Row(int(id)), q) <= eps2 {
				buf = append(buf, id)
			}
		}
		return buf
	case 3:
		for _, id := range ids {
			if sqDist332(m.Row(int(id)), q) <= eps2 {
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
		sqDistsGather32(m, q, ids[s:e], block[:e-s])
		for k := 0; k < e-s; k++ {
			if block[k] <= eps2 {
				buf = append(buf, ids[s+k])
			}
		}
	}
	return buf
}

// CountWithin32 is CountWithin over float32 rows.
func CountWithin32(m Matrix32, q []float64, eps2 float64, limit int) int {
	return CountWithinRange32(m, q, eps2, 0, m.Len(), limit)
}

// CountWithinRange32 is CountWithinRange over float32 rows.
func CountWithinRange32(m Matrix32, q []float64, eps2 float64, lo, hi, limit int) int {
	count := 0
	switch m.Dim {
	case 2:
		for i := lo; i < hi; i++ {
			if sqDist232(m.Row(i), q) <= eps2 {
				count++
				if limit > 0 && count >= limit {
					return count
				}
			}
		}
		return count
	case 3:
		for i := lo; i < hi; i++ {
			if sqDist332(m.Row(i), q) <= eps2 {
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
		sqDistsRange32(m, q, s, e, block[:e-s])
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

// CountWithinIDs32 is CountWithinIDs over float32 rows.
func CountWithinIDs32(m Matrix32, q []float64, eps2 float64, ids []int32, limit int) int {
	count := 0
	switch m.Dim {
	case 2:
		for _, id := range ids {
			if sqDist232(m.Row(int(id)), q) <= eps2 {
				count++
				if limit > 0 && count >= limit {
					return count
				}
			}
		}
		return count
	case 3:
		for _, id := range ids {
			if sqDist332(m.Row(int(id)), q) <= eps2 {
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
		sqDistsGather32(m, q, ids[s:e], block[:e-s])
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
