package dist

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// Matrix is a flat row-major view of n points in Dim dimensions: the
// zero-cost bridge between vec.Dataset and the batched kernels below
// (vec.Dataset.Matrix returns one without copying).
//
// Coords is the float64 master (len n*Dim). Coords32, when non-nil, is the
// float32 storage mirror of the same rows, and the master must hold its
// exact widening (Coords[i] == float64(Coords32[i])); every scan and dot
// kernel then streams the mirror instead, with bit-identical results (see
// f32.go). A packed copy made with Packed may hold the mirror alone (nil
// Coords): the scan and dot kernels serve it, Row and the cached-norms
// kernels, which read the master, do not.
type Matrix struct {
	Coords   []float64
	Coords32 []float32
	Dim      int
}

// Len returns the number of rows (points).
func (m Matrix) Len() int {
	if m.Dim <= 0 {
		return 0
	}
	return max(len(m.Coords), len(m.Coords32)) / m.Dim
}

// Row returns a read-only view of row i of the master.
func (m Matrix) Row(i int) []float64 { return row(m.Coords, m.Dim, i) }

// Packed returns an empty n-row matrix in the storage m's kernels stream —
// the float32 mirror alone when m carries one, else the float64 master —
// for CopyRows to fill in a backend's own row order.
func (m Matrix) Packed(n int) Matrix {
	if m.Coords32 != nil {
		return Matrix{Coords32: make([]float32, n*m.Dim), Dim: m.Dim}
	}
	return Matrix{Coords: make([]float64, n*m.Dim), Dim: m.Dim}
}

// PackedReuse is Packed backed by spare's array when spare holds the same
// storage with room for n rows, so a pool of packed copies allocates only
// when a copy outgrows every buffer it has seen. Only the storage m's
// kernels stream is kept; spare's other slice, if any, is dropped.
func (m Matrix) PackedReuse(n int, spare Matrix) Matrix {
	size := n * m.Dim
	if m.Coords32 != nil {
		if cap(spare.Coords32) >= size {
			return Matrix{Coords32: spare.Coords32[:size], Dim: m.Dim}
		}
	} else if cap(spare.Coords) >= size {
		return Matrix{Coords: spare.Coords[:size], Dim: m.Dim}
	}
	return m.Packed(n)
}

// CopyRows copies src's rows order[lo:hi] into rows [lo, hi) of m, a
// matrix from src.Packed. Disjoint ranges may be filled concurrently.
func (m Matrix) CopyRows(src Matrix, order []int32, lo, hi int) {
	if m.Coords32 != nil {
		copyRows(m.Coords32, src.Coords32, m.Dim, order, lo, hi)
		return
	}
	copyRows(m.Coords, src.Coords, m.Dim, order, lo, hi)
}

func copyRows[E elem](dst, src []E, dim int, order []int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		copy(dst[k*dim:(k+1)*dim], row(src, dim, int(order[k])))
	}
}

// row returns row i of a flat row-major slice of width dim.
func row[E elem](c []E, dim, i int) []E {
	base := i * dim
	return c[base : base+dim : base+dim]
}

// SqDistsTo writes the squared distance from each of the selected rows to q
// into out: out[k] = ‖row(ids[k]) − q‖². out must have length >= len(ids).
// This is the batched one-to-many kernel behind SVDD kernel rows and the
// metrics layer.
func SqDistsTo(m Matrix, q []float64, ids []int32, out []float64) {
	if m.Coords32 != nil {
		sqDistsGather(m.Coords32, m.Dim, q, ids, out)
		return
	}
	sqDistsGather(m.Coords, m.Dim, q, ids, out)
}

// SqDistsToAll writes the squared distance from every row to q into out:
// out[i] = ‖row(i) − q‖². out must have length >= m.Len().
func SqDistsToAll(m Matrix, q []float64, out []float64) {
	SqDistsToRange(m, q, 0, m.Len(), out)
}

// SqDistsToRange is SqDistsToAll restricted to rows [lo, hi), writing
// ‖row(lo+k) − q‖² into out[k]: the packed-row kernel behind SVDD kernel
// rows, bit-identical to SqDistsTo over the same rows gathered by id.
func SqDistsToRange(m Matrix, q []float64, lo, hi int, out []float64) {
	if m.Coords32 != nil {
		sqDistsRange(m.Coords32, m.Dim, q, lo, hi, out)
		return
	}
	sqDistsRange(m.Coords, m.Dim, q, lo, hi, out)
}

// MinSqDistsToAll lowers cur[i] to ‖row(i) − q‖² wherever that distance is
// smaller: the fused update step of k-means++ seeding.
func MinSqDistsToAll(m Matrix, q []float64, cur []float64) {
	if m.Coords32 != nil {
		minSqDists(m.Coords32, m.Dim, q, m.Len(), cur)
		return
	}
	minSqDists(m.Coords, m.Dim, q, m.Len(), cur)
}

// FilterWithin appends to buf the ids (ascending) of all rows within squared
// distance eps2 of q and returns the extended slice. It is the fused
// distance-plus-radius-test kernel behind the linear-scan backends.
func FilterWithin(m Matrix, q []float64, eps2 float64, buf []int32) []int32 {
	return FilterWithinRange(m, q, eps2, 0, m.Len(), buf)
}

// FilterWithinRange is FilterWithin restricted to rows [lo, hi); appended
// ids are absolute row indices. It is the leaf scan of the packed backends.
func FilterWithinRange(m Matrix, q []float64, eps2 float64, lo, hi int, buf []int32) []int32 {
	if m.Coords32 != nil {
		return filterRange(m.Coords32, m.Dim, q, eps2, lo, hi, buf)
	}
	return filterRange(m.Coords, m.Dim, q, eps2, lo, hi, buf)
}

// FilterWithinIDs appends to buf the members of ids (in given order) whose
// rows lie within squared distance eps2 of q and returns the extended
// slice. It is the gather scan of the grid and R-tree backends.
func FilterWithinIDs(m Matrix, q []float64, eps2 float64, ids, buf []int32) []int32 {
	if m.Coords32 != nil {
		return filterIDs(m.Coords32, m.Dim, q, eps2, ids, buf)
	}
	return filterIDs(m.Coords, m.Dim, q, eps2, ids, buf)
}

// CountWithin returns |{i : ‖row(i) − q‖² <= eps2}|. limit > 0 stops the
// scan as soon as the count reaches limit (the returned count never exceeds
// it); limit <= 0 counts exhaustively.
func CountWithin(m Matrix, q []float64, eps2 float64, limit int) int {
	return CountWithinRange(m, q, eps2, 0, m.Len(), limit)
}

// CountWithinRange is CountWithin restricted to rows [lo, hi).
func CountWithinRange(m Matrix, q []float64, eps2 float64, lo, hi, limit int) int {
	if m.Coords32 != nil {
		return countRange(m.Coords32, m.Dim, q, eps2, lo, hi, limit)
	}
	return countRange(m.Coords, m.Dim, q, eps2, lo, hi, limit)
}

// CountWithinIDs counts the members of ids whose rows lie within squared
// distance eps2 of q, with the same limit semantics as CountWithin.
func CountWithinIDs(m Matrix, q []float64, eps2 float64, ids []int32, limit int) int {
	if m.Coords32 != nil {
		return countIDs(m.Coords32, m.Dim, q, eps2, ids, limit)
	}
	return countIDs(m.Coords, m.Dim, q, eps2, ids, limit)
}

// blockSize is the row-block width used by the fused filter/count kernels
// for d >= 4 off the mask path: distances for a block are computed by one
// workhorse call into a stack buffer, then thresholded. The block amortizes the (non-inlinable)
// workhorse call without materializing a full distance slice.
const blockSize = 64

// leafBlock is the stack block of a range scan over at most that many rows:
// the leaf scans of the packed tree backends, whose leaves hold up to 16
// rows. Go zeroes a stack array where it is declared, so a leaf scan on the
// 64-row block would clear 512 B to use a quarter of them.
const leafBlock = 16

// sqDist2 and sqDist3 are SqDist2 and SqDist3 over either storage. They are
// leaf functions and inline, which is why the d=2 and d=3 scans below run
// fused per-row loops instead of the block machinery.
func sqDist2[E elem](a []E, q []float64) float64 {
	d0 := float64(a[0]) - q[0]
	d1 := float64(a[1]) - q[1]
	return d0*d0 + d1*d1
}

func sqDist3[E elem](a []E, q []float64) float64 {
	d0 := float64(a[0]) - q[0]
	d1 := float64(a[1]) - q[1]
	d2 := float64(a[2]) - q[2]
	return d0*d0 + d1*d1 + d2*d2
}

// sqDistTail adds the d mod 4 tail of row a (coordinates from w on) to the
// AVX partial s, in SqDist's order.
func sqDistTail[E elem](a []E, q []float64, w int, s float64) float64 {
	for j := w; j < len(a); j++ {
		dv := float64(a[j]) - q[j]
		s += dv * dv
	}
	return s
}

// sqDistsRange writes ‖row(lo+k) − q‖² into out[k] for k in [0, hi-lo): the
// contiguous-row workhorse behind FilterWithin(Range), CountWithin(Range),
// SqDistsToAll and MinSqDistsToAll. d=2 and d=3 run their specializations;
// d >= 4 runs the AVX kernels when the CPU has them, else the pure-Go loop.
// Both perform SqDist's operations in SqDist's order, so batched results are
// bit-identical to per-pair calls whichever path runs.
//
// On the AVX path four-row blocks go through E's four-row kernel, the up to
// three straggler rows through its single-row kernel, and the Go loop adds
// each row's d mod 4 tail to its (s0+s1)+(s2+s3) partial — the order SqDist
// uses. The reslices are the bounds checks the assembly cannot make.
func sqDistsRange[E elem](c []E, dim int, q []float64, lo, hi int, out []float64) {
	switch dim {
	case 2:
		for i := lo; i < hi; i++ {
			out[i-lo] = sqDist2(row(c, 2, i), q)
		}
		return
	case 3:
		for i := lo; i < hi; i++ {
			out[i-lo] = sqDist3(row(c, 3, i), q)
		}
		return
	}
	q = q[:dim]
	if !hasAVX || dim < 4 {
		// SqDist's unrolled body, inline: a per-row call costs as much as
		// the row.
		base := lo * dim
		for i := lo; i < hi; i++ {
			r := c[base : base+dim : base+dim]
			base += dim
			var s0, s1, s2, s3 float64
			j := 0
			for ; j+4 <= dim; j += 4 {
				d0 := float64(r[j]) - q[j]
				d1 := float64(r[j+1]) - q[j+1]
				d2 := float64(r[j+2]) - q[j+2]
				d3 := float64(r[j+3]) - q[j+3]
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
			out[i-lo] = sqDistTail(r, q, j, (s0+s1)+(s2+s3))
		}
		return
	}
	g := dim >> 2
	w := g << 2
	rows := c[lo*dim : hi*dim]
	out = out[:hi-lo]
	quads := len(out) >> 2
	if quads > 0 {
		if is32[E]() {
			sqDistsRows4x32AVX((*float32)(unsafe.Pointer(&rows[0])), &q[0], g, dim, quads, &out[0])
		} else {
			sqDistsRows4x64AVX((*float64)(unsafe.Pointer(&rows[0])), &q[0], g, dim, quads, &out[0])
		}
	}
	for k := quads << 2; k < len(out); k++ {
		if is32[E]() {
			out[k] = sqDistGroups32AVX((*float32)(unsafe.Pointer(&rows[k*dim])), &q[0], g)
		} else {
			out[k] = sqDistGroups64AVX((*float64)(unsafe.Pointer(&rows[k*dim])), &q[0], g)
		}
	}
	if w == dim {
		return
	}
	for k := range out {
		out[k] = sqDistTail(row(rows, dim, k), q, w, out[k])
	}
}

// sqDistsGather is sqDistsRange for an explicit id list: out[k] =
// ‖row(ids[k]) − q‖².
func sqDistsGather[E elem](c []E, dim int, q []float64, ids []int32, out []float64) {
	switch dim {
	case 2:
		for k, id := range ids {
			out[k] = sqDist2(row(c, 2, int(id)), q)
		}
		return
	case 3:
		for k, id := range ids {
			out[k] = sqDist3(row(c, 3, int(id)), q)
		}
		return
	}
	q = q[:dim]
	if hasAVX && is32[E]() && dim >= 4 {
		// The mirror's four-wide widening loads pay for a per-row assembly
		// call; on the master the inline loop below is as fast or faster.
		g := dim >> 2
		for k, id := range ids {
			r := row(c, dim, int(id))
			out[k] = sqDistTail(r, q, g<<2, sqDistGroups32AVX((*float32)(unsafe.Pointer(&r[0])), &q[0], g))
		}
		return
	}
	// SqDist's unrolled body, inline (see sqDistsRange).
	for k, id := range ids {
		base := int(id) * dim
		r := c[base : base+dim : base+dim]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= dim; j += 4 {
			d0 := float64(r[j]) - q[j]
			d1 := float64(r[j+1]) - q[j+1]
			d2 := float64(r[j+2]) - q[j+2]
			d3 := float64(r[j+3]) - q[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		out[k] = sqDistTail(r, q, j, (s0+s1)+(s2+s3))
	}
}

func minSqDists[E elem](c []E, dim int, q []float64, n int, cur []float64) {
	var block [blockSize]float64
	for s := 0; s < n; s += blockSize {
		e := min(s+blockSize, n)
		sqDistsRange(c, dim, q, s, e, block[:e-s])
		for k, d2 := range block[:e-s] {
			if d2 < cur[s+k] {
				cur[s+k] = d2
			}
		}
	}
}

func filterRange[E elem](c []E, dim int, q []float64, eps2 float64, lo, hi int, buf []int32) []int32 {
	switch dim {
	case 2:
		for i := lo; i < hi; i++ {
			if sqDist2(row(c, 2, i), q) <= eps2 {
				buf = append(buf, int32(i))
			}
		}
		return buf
	case 3:
		for i := lo; i < hi; i++ {
			if sqDist3(row(c, 3, i), q) <= eps2 {
				buf = append(buf, int32(i))
			}
		}
		return buf
	}
	if hasAVX && dim&3 == 0 {
		return filterMasks(c, dim, q, eps2, lo, hi, buf)
	}
	if hi-lo <= leafBlock {
		var block [leafBlock]float64
		return filterBlocks(c, dim, q, eps2, lo, hi, block[:], buf)
	}
	var block [blockSize]float64
	return filterBlocks(c, dim, q, eps2, lo, hi, block[:], buf)
}

// filterBlocks is filterRange's d >= 4 body over the caller's stack block.
func filterBlocks[E elem](c []E, dim int, q []float64, eps2 float64, lo, hi int, block []float64, buf []int32) []int32 {
	for s := lo; s < hi; s += len(block) {
		e := min(s+len(block), hi)
		sqDistsRange(c, dim, q, s, e, block[:e-s])
		for k, d2 := range block[:e-s] {
			if d2 <= eps2 {
				buf = append(buf, int32(s+k))
			}
		}
	}
	return buf
}

// maskRows is the most rows one call of a mask kernel tests: its masks,
// one byte per quad, fill a 64-byte stack buffer, eight 8-byte words.
const maskRows = 256

// sqDistsMaskAVX runs E's mask kernel over quads quads of rows from
// rows[0], writing one mask byte per quad to mask (see sqDistsMask4x64AVX).
func sqDistsMaskAVX[E elem](rows []E, q []float64, dim, quads int, eps2 float64, mask *uint8) {
	if is32[E]() {
		sqDistsMask4x32AVX((*float32)(unsafe.Pointer(&rows[0])), &q[0], dim>>2, dim, quads, eps2, mask)
	} else {
		sqDistsMask4x64AVX((*float64)(unsafe.Pointer(&rows[0])), &q[0], dim>>2, dim, quads, eps2, mask)
	}
}

// maskWord returns the mask bytes of quads [w, w+8) of masks as one word,
// byte j holding quad w+j, with the bytes past quads cleared: bit t of the
// word is row 4*(w + t>>3) + t&7 of the call.
func maskWord(masks *[maskRows / 4]uint8, w, quads int) uint64 {
	word := binary.LittleEndian.Uint64(masks[w : w+8])
	if left := quads - w; left < 8 {
		word &= 1<<(8*left) - 1
	}
	return word
}

// filterMasks is filterRange's body for d % 4 == 0 on the AVX path: the
// mask kernel tests up to maskRows rows per call in registers, the set bits
// are walked in ascending order, and filterBlocks tests the up to three
// rows past the last quad. A distance compares as it does in filterBlocks,
// so the ids are the same.
func filterMasks[E elem](c []E, dim int, q []float64, eps2 float64, lo, hi int, buf []int32) []int32 {
	var masks [maskRows / 4]uint8
	q = q[:dim]
	s := lo
	for hi-s >= 4 {
		quads := min(hi-s, maskRows) >> 2
		sqDistsMaskAVX(c[s*dim:hi*dim], q, dim, quads, eps2, &masks[0])
		for w := 0; w < quads; w += 8 {
			for word := maskWord(&masks, w, quads); word != 0; word &= word - 1 {
				t := bits.TrailingZeros64(word)
				buf = append(buf, int32(s+4*(w+t>>3)+t&7))
			}
		}
		s += quads << 2
	}
	var tail [3]float64
	return filterBlocks(c, dim, q, eps2, s, hi, tail[:], buf)
}

func filterIDs[E elem](c []E, dim int, q []float64, eps2 float64, ids, buf []int32) []int32 {
	switch dim {
	case 2:
		for _, id := range ids {
			if sqDist2(row(c, 2, int(id)), q) <= eps2 {
				buf = append(buf, id)
			}
		}
		return buf
	case 3:
		for _, id := range ids {
			if sqDist3(row(c, 3, int(id)), q) <= eps2 {
				buf = append(buf, id)
			}
		}
		return buf
	}
	var block [blockSize]float64
	for s := 0; s < len(ids); s += blockSize {
		e := min(s+blockSize, len(ids))
		sqDistsGather(c, dim, q, ids[s:e], block[:e-s])
		for k, d2 := range block[:e-s] {
			if d2 <= eps2 {
				buf = append(buf, ids[s+k])
			}
		}
	}
	return buf
}

func countRange[E elem](c []E, dim int, q []float64, eps2 float64, lo, hi, limit int) int {
	count := 0
	switch dim {
	case 2:
		for i := lo; i < hi; i++ {
			if sqDist2(row(c, 2, i), q) <= eps2 {
				count++
				if count == limit {
					return count
				}
			}
		}
		return count
	case 3:
		for i := lo; i < hi; i++ {
			if sqDist3(row(c, 3, i), q) <= eps2 {
				count++
				if count == limit {
					return count
				}
			}
		}
		return count
	}
	if hasAVX && dim&3 == 0 {
		return countMasks(c, dim, q, eps2, lo, hi, limit)
	}
	if hi-lo <= leafBlock {
		var block [leafBlock]float64
		return countBlocks(c, dim, q, eps2, lo, hi, limit, block[:])
	}
	var block [blockSize]float64
	return countBlocks(c, dim, q, eps2, lo, hi, limit, block[:])
}

// countBlocks is countRange's d >= 4 body over the caller's stack block.
func countBlocks[E elem](c []E, dim int, q []float64, eps2 float64, lo, hi, limit int, block []float64) int {
	count := 0
	for s := lo; s < hi; s += len(block) {
		e := min(s+len(block), hi)
		sqDistsRange(c, dim, q, s, e, block[:e-s])
		for _, d2 := range block[:e-s] {
			if d2 <= eps2 {
				count++
				if count == limit {
					return count
				}
			}
		}
	}
	return count
}

// countMasks is filterMasks counting: each word's set bits are added by
// popcount, and once the count reaches limit (> 0) the scan returns limit,
// which is where countBlocks stops too.
func countMasks[E elem](c []E, dim int, q []float64, eps2 float64, lo, hi, limit int) int {
	var masks [maskRows / 4]uint8
	q = q[:dim]
	count := 0
	s := lo
	for hi-s >= 4 {
		quads := min(hi-s, maskRows) >> 2
		sqDistsMaskAVX(c[s*dim:hi*dim], q, dim, quads, eps2, &masks[0])
		for w := 0; w < quads; w += 8 {
			count += bits.OnesCount64(maskWord(&masks, w, quads))
		}
		if limit > 0 && count >= limit {
			return limit
		}
		s += quads << 2
	}
	if limit > 0 {
		limit -= count
	}
	var tail [3]float64
	return count + countBlocks(c, dim, q, eps2, s, hi, limit, tail[:])
}

func countIDs[E elem](c []E, dim int, q []float64, eps2 float64, ids []int32, limit int) int {
	count := 0
	switch dim {
	case 2:
		for _, id := range ids {
			if sqDist2(row(c, 2, int(id)), q) <= eps2 {
				count++
				if count == limit {
					return count
				}
			}
		}
		return count
	case 3:
		for _, id := range ids {
			if sqDist3(row(c, 3, int(id)), q) <= eps2 {
				count++
				if count == limit {
					return count
				}
			}
		}
		return count
	}
	var block [blockSize]float64
	for s := 0; s < len(ids); s += blockSize {
		e := min(s+blockSize, len(ids))
		sqDistsGather(c, dim, q, ids[s:e], block[:e-s])
		for _, d2 := range block[:e-s] {
			if d2 <= eps2 {
				count++
				if count == limit {
					return count
				}
			}
		}
	}
	return count
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
