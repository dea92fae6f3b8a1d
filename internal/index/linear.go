package index

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"

	"dbsvec/internal/dist"
	"dbsvec/internal/engine"
	"dbsvec/internal/vec"
)

// zoneRows is the number of consecutive rows one bounding box of the zone
// map covers, and wordRows the rows of the 64 zones one word of a reach
// bitset holds.
const (
	zoneRows = 64
	wordRows = 64 * zoneRows
)

// Linear is the exhaustive-scan index: O(n) per query in the worst case,
// and the default backend, which the paper's DBSVEC runs on. It scans a
// matrix in a stored row order: the dataset's own (NewLinear) or one a
// backend chose, with a position→id map (NewOrdered; the kd-tree's leaf
// order). It builds one thing, a zone map: the bounding box of every
// zoneRows consecutive rows (a zone) and of every 64 zones (a word), 2·d
// float64 bounds each (about 3 % of the float64 rows' bytes), made in one
// pass over the rows. A query first tests the word boxes of every 64 words
// in one dist.NearBoxes call, then the 64 zone boxes of each word it
// reaches in another (AVX where the CPU has it, 16 boxes per pass),
// against its ε-ball, and reads only the rows of the zones the ball
// reaches. That prunes when the row order has locality (generated random
// walks, trajectories, sorted exports, a kd-tree's leaves: ~3 % of the
// rows on perfbench's cluster-default data) and prunes little on shuffled
// rows, where the scan reads nearly every row as before and pays the box
// tests.
//
// A query runs on its caller, one kernel call per run of consecutive
// reachable zones (filterRuns, countRuns), so it returns the ids of its
// matching rows in row order (in the dataset's own order, the ascending
// ids dist.FilterWithin returns), and its count stops at the limit with
// dist.CountWithin's value: the zones change speed, never a result.
// Linear has no batch methods of its own: index.Batch serves its batches
// with the fan-out adapter, one query per engine.For step.
type Linear struct {
	// m holds the n scanned rows; row k is the point with id ids[k], or
	// with id k when ids is nil (the dataset's own order).
	m   dist.Matrix
	n   int
	ids []int32
	// zone holds the bounding boxes of the zones, word by word so reach
	// tests a word's 64 zones one axis at a time: word w's block of 128·d
	// bounds holds, for each axis j, the 64 lower bounds at [128·j,
	// 128·j+64) and the 64 upper bounds after them. word holds the words'
	// boxes in the same layout, 64 words to a group: group g's block of
	// 128·d bounds holds the boxes of words 64·g to 64·g+63.
	zone, word []float64
	// free holds the idle queries' reach bitsets, under mu: a Linear is
	// shared by concurrent readers, so queries cannot share one bitset. It
	// is not a sync.Pool because a pool drops a quarter of its puts under
	// the race detector, so a steady-state query there would allocate its
	// bitset again and again.
	mu   sync.Mutex
	free [][]uint64
}

// NewLinear builds the zone map of a linear-scan index over ds's rows in
// their own order, checking ctx once (see NewOrdered).
func NewLinear(ctx context.Context, ds *vec.Dataset, workers int) (*Linear, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return NewOrdered(ds.Matrix(), nil, workers), nil
}

// NewOrdered builds the zone map of a linear-scan index over the rows of m,
// row k being the point with id ids[k] (nil ids: id k), in one pass over
// the rows (the float32 mirror where m has one, whose values the kernels
// widen exactly), split over workers goroutines (<= 0 selects GOMAXPROCS;
// 1 builds on the caller). The index keeps m and ids, and copies neither.
// workers sizes only the build: queries run on their caller.
func NewOrdered(m dist.Matrix, ids []int32, workers int) *Linear {
	l := &Linear{m: m, n: m.Len(), ids: ids}
	l.zone, l.word = zoneMap(m, l.n, engine.ResolveWorkers(workers))
	return l
}

// zoneMap returns Linear.zone and Linear.word for the n rows of m. Each
// 64-zone word reads only its own 4096 rows and writes only its own bounds,
// so the words build on engine.For across workers, one word per item, and
// every bound is the same min or max whichever worker computes it.
func zoneMap(m dist.Matrix, n, workers int) (zone, word []float64) {
	d := m.Dim
	if d <= 0 {
		return nil, nil
	}
	zones := (n + zoneRows - 1) / zoneRows
	words := (zones + 63) / 64
	zone, word = make([]float64, 128*d*words), make([]float64, 128*d*((words+63)/64))
	engine.For(nil, workers, words, 1, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			if m.Coords32 != nil {
				zoneBoxes(m.Coords32[:n*d], d, w, zone)
			} else {
				zoneBoxes(m.Coords[:n*d], d, w, zone)
			}
			wordBox(zone, zones, d, w, word)
		}
	})
	return zone, word
}

// zoneBoxes writes the bounding boxes of the zones of word w of the rows
// of c, zoneRows rows per zone, into box in Linear.zone's layout.
func zoneBoxes[E float32 | float64](c []E, d, w int, box []float64) {
	n := len(c) / d
	lo, hi := make([]float64, d), make([]float64, d)
	for z := 64 * w; z < min(64*(w+1), (n+zoneRows-1)/zoneRows); z++ {
		r0, r1 := z*zoneRows, min((z+1)*zoneRows, n)
		for j, v := range c[r0*d : r0*d+d] {
			lo[j], hi[j] = float64(v), float64(v)
		}
		for i := r0 + 1; i < r1; i++ {
			for j, v := range c[i*d : i*d+d] {
				if x := float64(v); x < lo[j] {
					lo[j] = x
				} else if x > hi[j] {
					hi[j] = x
				}
			}
		}
		bounds := box[128*d*(z>>6)+(z&63):]
		for j := range d {
			bounds[128*j], bounds[128*j+64] = lo[j], hi[j]
		}
	}
}

// wordBox writes the bounding box of word w, over zones zone boxes, into
// word in Linear.word's layout.
func wordBox(zone []float64, zones, d, w int, word []float64) {
	box, bounds := word[128*d*(w>>6)+(w&63):], zone[128*d*w:128*d*(w+1)]
	in := min(64, zones-64*w)
	for j := range d {
		box[128*j], box[128*j+64] = slices.Min(bounds[128*j:128*j+in]), slices.Max(bounds[128*j+64:128*j+64+in])
	}
}

// reachBound is the squared distance a zone's box may lie from a query and
// still hold a row within eps2 of it. The box test (dist.NearBoxes) sums
// its terms in axis order, the kernels in theirs
// (four partial sums, or fused multiply-adds where the compiler fuses),
// so the two roundings may differ
// by a few units in the last place per term; the relative slack covers
// that many times over, and the absolute one the terms that underflow. A
// NaN eps2 stays NaN, which keeps every zone; the kernel, which accepts
// nothing against a NaN eps2, then decides.
func reachBound(eps2 float64, d int) float64 {
	return eps2 + eps2*float64(d+4)*0x1p-48 + float64(2*d+2)*math.SmallestNonzeroFloat64
}

// reach sets the bits of the zones that may hold a row within bound of q,
// clears the others, and returns the number of rows in the set zones. It
// tests the word boxes in one dist.NearBoxes call per 64-word group: a
// word whose box lies beyond bound clears all its zones, any other word
// tests its zones' boxes in one more call. A NaN sum (a NaN coordinate or
// bound, or ∞−∞) is near, so the kernel, which accepts no row at a NaN
// distance, then decides.
func (l *Linear) reach(q []float64, bound float64, reach []uint64) int {
	d, z1 := l.m.Dim, l.zones()
	q = q[:d]
	rows := 0
	for w, w1 := 0, l.words(); w < w1; {
		g := w >> 6
		end := min(w1, g<<6+64)
		near := dist.NearBoxes(l.word[128*d*g:128*d*(g+1)], q, bound, end-g<<6)
		for ; w < end; w++ {
			var set uint64
			if near>>(w&63)&1 == 1 {
				set = dist.NearBoxes(l.zone[128*d*w:128*d*(w+1)], q, bound, min(w<<6+64, z1)-w<<6)
			}
			reach[w] = set
			rows += bits.OnesCount64(set) * zoneRows
		}
	}
	// The last zone may hold fewer than zoneRows rows.
	if last := z1 - 1; z1*zoneRows > l.n && reach[last>>6]>>(last&63)&1 == 1 {
		rows -= z1*zoneRows - l.n
	}
	return rows
}

// nextRun returns the first run [a, b) of consecutive zones set in reach
// within [z, end), or a == end when there is none.
func nextRun(reach []uint64, z, end int) (a, b int) {
	a = nextBit(reach, z, end, 0)
	if a == end {
		return end, end
	}
	return a, nextBit(reach, a, end, ^uint64(0))
}

// nextBit returns the first zone of [z, end) whose bit in reach, XORed
// with flip, is set, or end.
func nextBit(reach []uint64, z, end int, flip uint64) int {
	for z < end {
		if w := (reach[z>>6] ^ flip) >> (z & 63); w != 0 {
			return min(z+bits.TrailingZeros64(w), end)
		}
		z = (z | 63) + 1
	}
	return end
}

// filterRuns appends the ids of the rows within eps2 of q in the zones set
// in reach, one FilterWithinRange call per run of zones, so the rows come
// out ascending, then maps them to their ids.
func (l *Linear) filterRuns(q []float64, eps2 float64, reach []uint64, buf []int32) []int32 {
	mark := len(buf)
	for z, end := 0, l.zones(); ; {
		a, b := nextRun(reach, z, end)
		if a == end {
			break
		}
		buf = dist.FilterWithinRange(l.m, q, eps2, a*zoneRows, min(b*zoneRows, l.n), buf)
		z = b
	}
	if l.ids != nil {
		for i, k := range buf[mark:] {
			buf[mark+i] = l.ids[k]
		}
	}
	return buf
}

// countRuns is filterRuns counting the rows, with CountWithinRange's
// limit: once the count reaches limit > 0 it returns limit.
func (l *Linear) countRuns(q []float64, eps2 float64, reach []uint64, limit int) int {
	count := 0
	for z, end := 0, l.zones(); ; {
		a, b := nextRun(reach, z, end)
		if a == end {
			return count
		}
		left := 0
		if limit > 0 {
			left = limit - count
		}
		count += dist.CountWithinRange(l.m, q, eps2, a*zoneRows, min(b*zoneRows, l.n), left)
		if limit > 0 && count == limit {
			return count
		}
		z = b
	}
}

// Len returns the number of indexed points.
func (l *Linear) Len() int { return l.n }

// zones is the number of zones, the last one possibly partial.
func (l *Linear) zones() int { return (l.n + zoneRows - 1) / zoneRows }

// words is the length of a query's reach bitset.
func (l *Linear) words() int { return (l.n + wordRows - 1) / wordRows }

// ReachRows returns the number of rows a range query of q within eps
// reads: the rows of the zones whose boxes the ε-ball reaches.
func (l *Linear) ReachRows(q []float64, eps float64) int {
	reach, rows := l.prepare(q, eps*eps)
	l.putReach(reach)
	return rows
}

// prepare sets q's reach bitset in an idle query's buffer and returns it
// with the rows it reads.
func (l *Linear) prepare(q []float64, eps2 float64) ([]uint64, int) {
	reach := l.getReach()
	return reach, l.reach(q, reachBound(eps2, l.m.Dim), reach)
}

// RangeQuery implements Index: the filter kernel over the reachable zones,
// on the caller.
func (l *Linear) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	eps2 := eps * eps
	reach, _ := l.prepare(q, eps2)
	buf = l.filterRuns(q, eps2, reach, buf)
	l.putReach(reach)
	return buf
}

// RangeCount implements Index as RangeQuery does, via the count kernel.
func (l *Linear) RangeCount(q []float64, eps float64, limit int) int {
	eps2 := eps * eps
	reach, _ := l.prepare(q, eps2)
	c := l.countRuns(q, eps2, reach, limit)
	l.putReach(reach)
	return c
}

// getReach takes an idle query's reach bitset, or makes one.
func (l *Linear) getReach() []uint64 {
	var reach []uint64
	l.mu.Lock()
	if k := len(l.free); k > 0 {
		reach, l.free = l.free[k-1], l.free[:k-1]
	}
	l.mu.Unlock()
	if reach == nil {
		reach = make([]uint64, l.words())
	}
	return reach
}

// putReach returns a query's reach bitset to the idle ones.
func (l *Linear) putReach(reach []uint64) {
	l.mu.Lock()
	l.free = append(l.free, reach)
	l.mu.Unlock()
}
