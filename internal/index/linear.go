package index

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"dbsvec/internal/dist"
	"dbsvec/internal/engine"
	"dbsvec/internal/fault"
	"dbsvec/internal/vec"
)

// minBlockRows is the fewest rows a split scan gives one row block, so a
// scan splits only from 2·minBlockRows rows on. Below that the fan-out's
// fixed cost (goroutine starts and a wait, a few µs) is a large share of
// the scan it would split. Measured on 2 vCPUs at n=40k, d=8 (whole scan
// ~200 µs), single-query medians were 81–110 µs at 4096 rows (9 blocks),
// 88–107 µs at 2048 and 98–161 µs with one block per worker. A single
// query splits only when the rows it reads reach 2·minBlockRows.
const minBlockRows = 4096

// tileBytes is the size of the row tile a scan item runs all its queries
// over before it moves on, so the tile comes from memory once per item and
// from L1 for the rest of its queries: 256 rows at d=8 in float64, a third
// of a 48 KiB L1d. Measured with benchall -exp index's split rows at
// n=40k, d=8 on 2 vCPUs (Xeon, 48 KiB L1d, 2 MiB L2), two runs per
// setting: 100 batches of 12 queries on 2 workers took 68/68 ms with
// 16 KiB tiles, 87–94 ms with 8 KiB, 92–144 ms with 32 KiB and 68–88 ms
// with 64 KiB; the 512-query count batches were within noise of each
// other (254–381 ms for 20 batches).
const tileBytes = 16 << 10

// queryChunk is the most queries one scan item runs over its row block.
// Fewer queries per tile reread the tile more often; more leave a
// many-query batch over a small dataset with too few items to fan out. In
// the same sweep, chunks of 4 and 16 queries took 83–86 and 73–79 ms for
// the 12-query batches with 16 KiB tiles, against 68/68 ms for 8.
const queryChunk = 8

// zoneRows is the number of consecutive rows one bounding box of the zone
// map covers, and wordRows the rows of the 64 zones one word of a reach
// bitset holds. A batch's row blocks start at multiples of wordRows, so
// the zones of a block fill whole words that no other block writes.
const (
	zoneRows = 64
	wordRows = 64 * zoneRows
)

// Linear is the exhaustive-scan index: O(n) per query in the worst case,
// and the default backend, which the paper's DBSVEC runs on. It builds one
// thing, a zone map: the bounding box of every zoneRows consecutive rows
// (a zone) and of every 64 zones (a word), 2·d float64 bounds each (about
// 3 % of the float64 rows' bytes), made in one pass over the rows. A query
// first tests the word boxes, then the zone boxes of the words it
// reaches, against its ε-ball, and reads only the rows of the zones the
// ball reaches. That prunes when the row order has locality (generated
// random walks, trajectories, sorted exports: ~3 % of the rows on
// perfbench's cluster-default data) and prunes nothing on shuffled rows,
// where the scan reads every row as before and pays only the word tests.
//
// A single query that reads 2·minBlockRows rows or more, and every batch,
// runs one block-major schedule (scan): the rows split into contiguous
// blocks of minBlockRows to 2·minBlockRows rows (one block on one
// worker), the queries into chunks of queryChunk, and
// each engine.For item, one (chunk, block) pair, walks its block in tiles
// of tileBytes, running every query of the chunk on the reachable zones of
// a tile before it moves on. The workers claim items one at a time: a
// worker whose CPU wakes late still takes its share, where one block per
// worker would leave the scan waiting for it. A query's block results are
// concatenated in block order, so it returns the ascending ids
// dist.FilterWithin returns, and its counts add into one running total
// clamped at the limit, which is dist.CountWithin's value: the zones and
// the schedule change speed, never a result.
type Linear struct {
	ds *vec.Dataset
	// workers and blocks size a single query's split; with blocks == 1 no
	// single query splits.
	workers int
	blocks  int
	// tile is the number of rows in tileBytes, a multiple of four so only
	// a block's last tile has rows past its last four-row quad.
	tile int
	// zone holds the bounding boxes of the zones, word by word so reach
	// tests a word's 64 zones one axis at a time: word w's block of 128·d
	// bounds holds, for each axis j, the 64 lower bounds at [128·j,
	// 128·j+64) and the 64 upper bounds after them. word holds the words'
	// boxes, box w at [2·d·w, 2·d·(w+1)): its d lower bounds, then its d
	// upper bounds.
	zone, word []float64
	// wide marks the words whose zones are on average at least half as
	// wide as the word on each axis, as on shuffled rows: a query that
	// reaches the word reaches nearly all their zones, so reach takes them
	// all instead of testing each.
	wide []bool
	// free holds the idle scans' buffers, under mu: a Linear is shared by
	// concurrent readers, so scans cannot share one buffer. It is not a
	// sync.Pool because a pool drops a quarter of its puts under the race
	// detector, so a steady-state batch there would allocate its buffers
	// again and again.
	mu   sync.Mutex
	free []*scanScratch
}

// scanScratch is one scan's per-query state: each query's reach bitset,
// its count total, which every block of the query adds to and reads, and a
// split single query's block results.
type scanScratch struct {
	reach  []uint64
	totals []atomic.Int64
	parts  [][]int32
}

// NewLinear builds the zone map of a linear-scan index over ds in one pass
// over its rows (the float32 mirror in F32 mode, whose values the kernels
// widen exactly), split over workers goroutines, checking ctx once; workers
// (<= 0 selects GOMAXPROCS) is also the number of goroutines a single
// query's split scan runs on. workers == 1 builds on the caller and scans
// every single query there, as do queries that read fewer than
// 2·minBlockRows rows.
func NewLinear(ctx context.Context, ds *vec.Dataset, workers int) (*Linear, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	workers = engine.ResolveWorkers(workers)
	m := ds.Matrix()
	l := &Linear{ds: ds, workers: workers, blocks: blocksFor(ds.Len(), 1, workers), tile: tileRows(m)}
	l.zone, l.word, l.wide = zoneMap(m, ds.Len(), workers)
	return l, nil
}

// zoneMap returns Linear.zone, Linear.word and Linear.wide for the n rows
// of m. Each 64-zone word reads only its own 4096 rows and writes only its
// own bounds, so the words build on engine.For across workers, one word per
// item, and every bound is the same min or max whichever worker computes
// it.
func zoneMap(m dist.Matrix, n, workers int) (zone, word []float64, wide []bool) {
	d := m.Dim
	if d <= 0 {
		return nil, nil, nil
	}
	zones := (n + zoneRows - 1) / zoneRows
	words := (zones + 63) / 64
	zone, word, wide = make([]float64, 128*d*words), make([]float64, 2*d*words), make([]bool, words)
	engine.For(nil, workers, words, 1, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			if m.Coords32 != nil {
				zoneBoxes(m.Coords32[:n*d], d, w, zone)
			} else {
				zoneBoxes(m.Coords[:n*d], d, w, zone)
			}
			wide[w] = wordBox(zone, zones, d, w, word)
		}
	})
	return zone, word, wide
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
// word in Linear.word's layout, and reports whether the word is wide: the
// mean over its zones and axes of zone width over word width (1 on an axis
// where the word is flat) is at least one half. The mean reads 0.08 on
// perfbench's cluster-default data in generation order and 0.97 on the
// same rows shuffled.
func wordBox(zone []float64, zones, d, w int, word []float64) bool {
	box, bounds := word[2*d*w:2*d*(w+1)], zone[128*d*w:128*d*(w+1)]
	in := min(64, zones-64*w)
	ratio := 0.0
	for j := range d {
		lo, hi := bounds[128*j:128*j+in], bounds[128*j+64:128*j+64+in]
		box[j], box[d+j] = slices.Min(lo), slices.Max(hi)
		span := box[d+j] - box[j]
		for k := range in {
			if span > 0 {
				ratio += (hi[k] - lo[k]) / span
			} else {
				ratio++
			}
		}
	}
	return ratio >= 0.5*float64(in*d)
}

// tileRows is the number of m's rows in tileBytes, rounded down to a
// multiple of four (at least four).
func tileRows(m dist.Matrix) int {
	size := 8
	if m.Coords32 != nil {
		size = 4
	}
	return max(4, tileBytes/(max(m.Dim, 1)*size)) &^ 3
}

// blocksFor is the number of row blocks a scan of queries queries over n
// rows on workers splits into: 1 on one worker, else as many as give each
// block at least minBlockRows rows, divided among the query chunks. A
// batch thus runs about as many items as a single query, and never fewer
// than its chunks. Fewer blocks for a many-query batch also keep its
// (query × block) result arena small.
func blocksFor(n, queries, workers int) int {
	if workers <= 1 {
		return 1
	}
	chunks := max(1, (queries+queryChunk-1)/queryChunk)
	return max(1, n/minBlockRows/chunks)
}

// block returns the rows [lo, hi) of block b of nb over n rows, in as
// equal shares as starting each block at a multiple of unit allows. The
// blocks tile [0, n) in order, which is what makes the concatenation of
// block results in block order ascending. nb never exceeds n/minBlockRows,
// so with a unit of at most minBlockRows no block is empty. A batch's
// blocks start at multiples of wordRows, so each fills whole words of the
// reach bitsets; a single query's bitset is set before its split, and its
// blocks take equal shares: word-aligned blocks at n=40k are 4096 × 8 and
// 7232 rows, and the workers, which claim blocks in order, would end with
// one of them scanning the 7232 rows alone.
func block(n, nb, b, unit int) (lo, hi int) {
	units := (n + unit - 1) / unit
	return b * units / nb * unit, min((b+1)*units/nb*unit, n)
}

// zones returns the zones [z0, z1) that hold the rows [lo, hi).
func zones(lo, hi int) (z0, z1 int) { return lo / zoneRows, (hi + zoneRows - 1) / zoneRows }

// reachBound is the squared distance a zone's box may lie from a query and
// still hold a row within eps2 of it. The box test sums its terms in its
// own order, the kernels in theirs (four partial sums, or fused
// multiply-adds where the compiler fuses), so the two roundings may differ
// by a few units in the last place per term; the relative slack covers
// that many times over, and the absolute one the terms that underflow. A
// NaN eps2 stays NaN, which keeps every zone; the kernel, which accepts
// nothing against a NaN eps2, then decides.
func reachBound(eps2 float64, d int) float64 {
	return eps2 + eps2*float64(d+4)*0x1p-48 + float64(2*d+2)*math.SmallestNonzeroFloat64
}

// reach sets the bits of the zones of [z0, z1) that may hold a row within
// bound of q and clears the other bits of their words, and returns the
// number of rows in the set zones. z0 is a multiple of 64, so reach writes
// whole words. A word whose box lies beyond bound clears all its zones; a
// wide word sets all of them; any other word tests each zone's box.
func (l *Linear) reach(q []float64, bound float64, reach []uint64, z0, z1 int) int {
	d := l.ds.Dim()
	q = q[:d]
	rows := 0
	for w := z0 >> 6; w<<6 < z1; w++ {
		var set uint64
		if near(l.word[2*d*w:2*d*(w+1)], q, bound) {
			zEnd := min(w<<6+64, z1)
			if l.wide[w] {
				set = ^uint64(0) >> (64 - (zEnd - w<<6))
			} else {
				set = nearZones(l.zone[128*d*w:128*d*(w+1)], q, bound, zEnd-w<<6)
			}
		}
		reach[w] = set
		rows += bits.OnesCount64(set) * zoneRows
	}
	// The dataset's last zone may hold fewer than zoneRows rows.
	if n, last := l.ds.Len(), z1-1; z1*zoneRows > n && reach[last>>6]>>(last&63)&1 == 1 {
		rows -= z1*zoneRows - n
	}
	return rows
}

// nearZones returns the bits of the first in zones of a word's block of
// zone bounds (Linear.zone's layout) that are near q: near's test, one
// axis at a time over all 64 zones, so the zones' sums do not wait on
// each other. Each zone's terms add in axis order, as in near.
func nearZones(bounds, q []float64, bound float64, in int) uint64 {
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

// near reports whether the box (d lower bounds, then d upper bounds) may
// hold a point within bound of q. Its sum of squared gaps is a lower bound
// on the kernels' distance to every row in the box, up to the rounding
// reachBound allows for. A NaN (a NaN coordinate, or ∞−∞) makes the sum
// NaN, which is near: the kernel then decides.
func near(box, q []float64, bound float64) bool {
	lo, hi := box[:len(q)], box[len(q):]
	s := 0.0
	for j, v := range q {
		g := gap(lo[j], hi[j], v)
		s += g * g
	}
	return !(s > bound)
}

// gap is the distance from v to [lo, hi] on one axis, max(lo−v, v−hi, 0),
// taken without a branch: at most one of the differences is positive, and
// x+|x| is exactly 2x or 0. It rounds no larger than the difference from v
// to any coordinate in [lo, hi] does.
func gap(lo, hi, v float64) float64 {
	g, h := lo-v, v-hi
	return 0.5 * ((g + math.Abs(g)) + (h + math.Abs(h)))
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

// filterRuns appends the ids within eps2 of q among the rows [r0, r1) of
// m in the zones set in reach, one FilterWithinRange call per run of
// zones, so the ids come out ascending.
func filterRuns(m dist.Matrix, q []float64, eps2 float64, reach []uint64, r0, r1 int, buf []int32) []int32 {
	for z, end := zones(r0, r1); ; {
		a, b := nextRun(reach, z, end)
		if a == end {
			return buf
		}
		buf = dist.FilterWithinRange(m, q, eps2, max(a*zoneRows, r0), min(b*zoneRows, r1), buf)
		z = b
	}
}

// countRuns is filterRuns counting, with CountWithinRange's limit: once
// the count reaches limit > 0 it returns limit.
func countRuns(m dist.Matrix, q []float64, eps2 float64, reach []uint64, r0, r1, limit int) int {
	count := 0
	for z, end := zones(r0, r1); ; {
		a, b := nextRun(reach, z, end)
		if a == end {
			return count
		}
		left := 0
		if limit > 0 {
			left = limit - count
		}
		count += dist.CountWithinRange(m, q, eps2, max(a*zoneRows, r0), min(b*zoneRows, r1), left)
		if limit > 0 && count == limit {
			return count
		}
		z = b
	}
}

// Len returns the number of indexed points.
func (l *Linear) Len() int { return l.ds.Len() }

// words is the length of one query's reach bitset.
func (l *Linear) words() int { return (l.ds.Len() + wordRows - 1) / wordRows }

// ReachRows returns the number of rows a range query of q within eps
// reads: the rows of the zones whose boxes the ε-ball reaches.
func (l *Linear) ReachRows(q []float64, eps float64) int {
	s, rows := l.prepare(q, eps*eps)
	l.putScratch(s)
	return rows
}

// prepare sets a single query's reach bitset in an idle scan's buffers and
// returns the rows it reads.
func (l *Linear) prepare(q []float64, eps2 float64) (*scanScratch, int) {
	s := l.getScratch(1, l.blocks)
	z0, z1 := zones(0, l.ds.Len())
	return s, l.reach(q, reachBound(eps2, l.ds.Dim()), s.reach, z0, z1)
}

// splits reports whether a single query that reads rows rows splits
// across the workers: only from 2·minBlockRows rows on.
func (l *Linear) splits(rows int) bool { return l.blocks > 1 && rows >= 2*minBlockRows }

// RangeQuery implements Index: the filter kernel over the reachable zones,
// split into row blocks across the workers when they hold enough rows.
func (l *Linear) RangeQuery(q []float64, eps float64, buf []int32) []int32 {
	eps2 := eps * eps
	s, rows := l.prepare(q, eps2)
	if !l.splits(rows) {
		buf = filterRuns(l.ds.Matrix(), q, eps2, s.reach, 0, l.ds.Len(), buf)
	} else {
		// A background ctx never cancels, so the schedule cannot fail.
		_ = l.scan(context.Background(), l.workers, single(q), eps, 0, l.blocks, s, false, s.parts)
		for _, part := range s.parts[:l.blocks] {
			buf = append(buf, part...)
		}
	}
	l.putScratch(s)
	return buf
}

// RangeCount implements Index as RangeQuery does, via the count kernel. A
// split count's blocks share its running total, so they stop once the
// query reaches the limit.
func (l *Linear) RangeCount(q []float64, eps float64, limit int) int {
	eps2 := eps * eps
	s, rows := l.prepare(q, eps2)
	var c int
	if !l.splits(rows) {
		c = countRuns(l.ds.Matrix(), q, eps2, s.reach, 0, l.ds.Len(), limit)
	} else {
		_ = l.scan(context.Background(), l.workers, single(q), eps, limit, l.blocks, s, false, nil)
		c = clamp(s.totals[0].Load(), limit)
	}
	l.putScratch(s)
	return c
}

// getScratch takes an idle scan's buffers, sized for queries queries and
// parts block results, and zeroes the count totals.
func (l *Linear) getScratch(queries, parts int) *scanScratch {
	var s *scanScratch
	l.mu.Lock()
	if k := len(l.free); k > 0 {
		s, l.free = l.free[k-1], l.free[:k-1]
	}
	l.mu.Unlock()
	if s == nil {
		s = &scanScratch{}
	}
	if n := queries * l.words(); len(s.reach) < n {
		s.reach = make([]uint64, n)
	}
	if len(s.totals) < queries {
		s.totals = make([]atomic.Int64, queries)
	}
	for i := range s.totals[:queries] {
		s.totals[i].Store(0)
	}
	if len(s.parts) < parts {
		s.parts = make([][]int32, parts)
	}
	return s
}

// putScratch returns a scan's buffers to the idle ones.
func (l *Linear) putScratch(s *scanScratch) {
	l.mu.Lock()
	l.free = append(l.free, s)
	l.mu.Unlock()
}

// single addresses one query point as a batch.
func single(q []float64) Queries {
	return Queries{N: 1, At: func(int) []float64 { return q }}
}

// BatchRangeQuery implements BatchIndex on the one schedule. It never
// calls the splitting RangeQuery, so there is no nested fan-out. With one
// block each query's ids land in out[i]; with nb > 1 its block results
// live in out's backing array past qs.N until they are concatenated into
// out[i].
func (l *Linear) BatchRangeQuery(ctx context.Context, qs Queries, eps float64, workers int, out [][]int32) (_ [][]int32, err error) {
	if err := fault.Error(fault.IndexQueryError); err != nil {
		return nil, err
	}
	defer fault.RecoverTo(&err)
	nb := blocksFor(l.ds.Len(), qs.N, engine.ResolveWorkers(workers))
	size := qs.N
	if nb > 1 {
		size += qs.N * nb
	}
	out = growSlices(out, size)
	parts := out[size-qs.N*nb:]
	s := l.getScratch(qs.N, 0)
	defer l.putScratch(s)
	if err := l.scan(ctx, workers, qs, eps, 0, nb, s, true, parts); err != nil {
		return nil, err
	}
	if nb > 1 {
		for i := range qs.N {
			out[i] = out[i][:0]
			for _, part := range parts[i*nb : (i+1)*nb] {
				out[i] = append(out[i], part...)
			}
		}
	}
	return out[:qs.N], nil
}

// BatchRangeCount implements BatchIndex on the one schedule: query i's
// blocks add into its running total, clamped into out[i].
func (l *Linear) BatchRangeCount(ctx context.Context, qs Queries, eps float64, limit, workers int, out []int) (_ []int, err error) {
	if err := fault.Error(fault.IndexQueryError); err != nil {
		return nil, err
	}
	defer fault.RecoverTo(&err)
	nb := blocksFor(l.ds.Len(), qs.N, engine.ResolveWorkers(workers))
	if cap(out) < qs.N {
		out = make([]int, qs.N)
	}
	out = out[:qs.N]
	s := l.getScratch(qs.N, 0)
	defer l.putScratch(s)
	if err := l.scan(ctx, workers, qs, eps, limit, nb, s, true, nil); err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = clamp(s.totals[i].Load(), limit)
	}
	return out, nil
}

// scan is the linear scan's one schedule. It answers query i of qs on row
// block b of nb into hoods[i*nb+b] (the ids within eps, ascending) or,
// with nil hoods, adds its count within eps into s.totals[i]. Each
// engine.For item is one chunk of up to queryChunk queries on one row
// block. With fill it first sets its queries' reach bits for the block's
// zones (the block owns their words); without, the caller has set every
// bit. It then walks the block in tiles of l.tile rows (a chunk of one
// filter query in one tile), running every query of the chunk on the
// tile's reachable zones before the next tile, so a tile is read once per
// item. A count reads the query's total before each tile, skips the tile
// once the total has reached the limit, and otherwise counts only up to
// the limit's remainder, so a query's blocks stop together and the clamped
// total is the whole scan's count.
func (l *Linear) scan(ctx context.Context, workers int, qs Queries, eps float64, limit, nb int, s *scanScratch, fill bool, hoods [][]int32) error {
	m, eps2, n, words := l.ds.Matrix(), eps*eps, l.ds.Len(), l.words()
	bound := reachBound(eps2, l.ds.Dim())
	unit := 1
	if fill {
		unit = wordRows
	}
	chunks := (qs.N + queryChunk - 1) / queryChunk
	return engine.For(ctx, workers, chunks*nb, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			c, b := k/nb, k%nb
			q0, q1 := c*queryChunk, min((c+1)*queryChunk, qs.N)
			r0, r1 := block(n, nb, b, unit)
			// reach[i-q0] is query i's bitset. Tiles that hold no zone any
			// query of the chunk reaches are skipped.
			var reach [queryChunk][]uint64
			z0, z1 := zones(r0, r1)
			for i := q0; i < q1; i++ {
				bits := s.reach[i*words : (i+1)*words]
				if fill {
					l.reach(qs.At(i), bound, bits, z0, z1)
				}
				reach[i-q0] = bits
				if hoods != nil {
					hoods[i*nb+b] = hoods[i*nb+b][:0]
				}
			}
			// A tile is read once per chunk for the rest of its queries,
			// so a chunk of one filter query walks its block as one tile:
			// its runs then span tiles, one kernel call each. A count
			// keeps its tiles to read its total between them.
			tile := l.tile
			if hoods != nil && q1-q0 == 1 {
				tile = r1 - r0
			}
			for t0 := r0; t0 < r1; t0 += tile {
				next := z1
				for _, bits := range reach[:q1-q0] {
					next = nextBit(bits, t0/zoneRows, next, 0)
				}
				if next == z1 {
					break
				}
				t0 += max(0, next*zoneRows-t0) / tile * tile
				t1 := min(t0+tile, r1)
				for i := q0; i < q1; i++ {
					if hoods != nil {
						j := i*nb + b
						hoods[j] = filterRuns(m, qs.At(i), eps2, reach[i-q0], t0, t1, hoods[j])
						continue
					}
					left := 0
					if limit > 0 {
						if left = limit - int(s.totals[i].Load()); left <= 0 {
							continue
						}
					}
					if c := countRuns(m, qs.At(i), eps2, reach[i-q0], t0, t1, left); c > 0 {
						s.totals[i].Add(int64(c))
					}
				}
			}
		}
	})
}

// clamp is a query's count from its running total: blocks stop only once
// the total has reached the limit, so the total clamped at limit (> 0) is
// exactly dist.CountWithin's value.
func clamp(total int64, limit int) int {
	if limit > 0 && total > int64(limit) {
		return limit
	}
	return int(total)
}

var _ BatchIndex = (*Linear)(nil)
