package dist

// Float32 twins of the dot-product kernels: coordinates stream as float32,
// every multiply and add runs in float64, and per row the operations match
// Dot on the widened row exactly — same equivalence contract as f32.go. On
// amd64 with AVX the bodies dispatch to assembly (dotGroups32AVX /
// dotsRows4x32AVX in avx_amd64.s) that maps one YMM accumulator lane to each
// scalar partial sum, so the speedup never costs a ULP.
//
// The Cached eps-filters of dots.go are deliberately not mirrored here: the
// cached-norms identity cancels catastrophically in exactly the
// large-magnitude regime float32 storage targets (see f32.go and norms.go).

// Dot32 returns a·q with a stored as float32 and all arithmetic in float64;
// bit-identical to Dot(widen(a), q).
func Dot32(a []float32, q []float64) float64 {
	n := len(a)
	q = q[:n]
	var s float64
	i := 0
	if hasAVX && n >= 4 {
		g := n >> 2
		s = dotGroups32AVX(&a[0], &q[0], g)
		i = g << 2
	} else {
		var s0, s1, s2, s3 float64
		for ; i+4 <= n; i += 4 {
			s0 += float64(a[i]) * q[i]
			s1 += float64(a[i+1]) * q[i+1]
			s2 += float64(a[i+2]) * q[i+2]
			s3 += float64(a[i+3]) * q[i+3]
		}
		s = (s0 + s1) + (s2 + s3)
	}
	for ; i < n; i++ {
		s += float64(a[i]) * q[i]
	}
	return s
}

// dotsRange32 mirrors dotsRange over float32 rows.
func dotsRange32(m Matrix32, q []float64, lo, hi int, out []float64) {
	dim := m.Dim
	q = q[:dim]
	if hasAVX && dim >= 4 {
		dotsRangeAVX32(m, q, lo, hi, out)
		return
	}
	base := lo * dim
	for i := lo; i < hi; i++ {
		row := m.Coords[base : base+dim : base+dim]
		base += dim
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= dim; j += 4 {
			s0 += float64(row[j]) * q[j]
			s1 += float64(row[j+1]) * q[j+1]
			s2 += float64(row[j+2]) * q[j+2]
			s3 += float64(row[j+3]) * q[j+3]
		}
		s := (s0 + s1) + (s2 + s3)
		for ; j < dim; j++ {
			s += float64(row[j]) * q[j]
		}
		out[i-lo] = s
	}
}

// dotsRangeAVX32 is the assembly-dispatched body of dotsRange32: four-row
// blocks go through dotsRows4x32AVX, stragglers and dims that are not a
// multiple of four go through the single-row kernel plus a scalar tail —
// the same dispatch shape as sqDistsRangeAVX32.
func dotsRangeAVX32(m Matrix32, q []float64, lo, hi int, out []float64) {
	dim := m.Dim
	g := dim >> 2
	w := g << 2
	base := lo * dim
	i := lo
	if w == dim {
		if quads := (hi - lo) >> 2; quads > 0 {
			dotsRows4x32AVX(&m.Coords[base], &q[0], g, quads, &out[0])
			i += quads << 2
			base = i * dim
		}
	}
	for ; i < hi; i++ {
		row := m.Coords[base : base+dim : base+dim]
		base += dim
		s := dotGroups32AVX(&row[0], &q[0], g)
		for j := w; j < dim; j++ {
			s += float64(row[j]) * q[j]
		}
		out[i-lo] = s
	}
}

// dotsGather32 mirrors dotsGather over float32 rows.
func dotsGather32(m Matrix32, q []float64, ids []int32, out []float64) {
	dim := m.Dim
	q = q[:dim]
	if hasAVX && dim >= 4 {
		g := dim >> 2
		w := g << 2
		for k, id := range ids {
			base := int(id) * dim
			row := m.Coords[base : base+dim : base+dim]
			s := dotGroups32AVX(&row[0], &q[0], g)
			for j := w; j < dim; j++ {
				s += float64(row[j]) * q[j]
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
			s0 += float64(row[j]) * q[j]
			s1 += float64(row[j+1]) * q[j+1]
			s2 += float64(row[j+2]) * q[j+2]
			s3 += float64(row[j+3]) * q[j+3]
		}
		s := (s0 + s1) + (s2 + s3)
		for ; j < dim; j++ {
			s += float64(row[j]) * q[j]
		}
		out[k] = s
	}
}

// DotsTo32 is DotsTo over float32 rows: out[k] = row(ids[k])·q.
func DotsTo32(m Matrix32, q []float64, ids []int32, out []float64) {
	dotsGather32(m, q, ids, out)
}

// DotsToAll32 is DotsToAll over float32 rows.
func DotsToAll32(m Matrix32, q []float64, out []float64) {
	dotsRange32(m, q, 0, m.Len(), out)
}

// DotsToRange32 is DotsToRange over float32 rows.
func DotsToRange32(m Matrix32, q []float64, lo, hi int, out []float64) {
	dotsRange32(m, q, lo, hi, out)
}
