// Package lsh implements p-stable locality-sensitive hashing (Datar et al.,
// SoCG 2004) for Euclidean space: h(x) = ⌊(a·x + b)/W⌋ with a drawn from a
// standard Gaussian (2-stable) distribution and b uniform in [0, W). It
// backs the DBSCAN-LSH baseline.
//
// The hot structure is laid out for batch work: all Tables×Funcs projection
// vectors live in one contiguous row-major matrix, so hashing the dataset is
// a sequence of dense matrix-vector products through the dist dot kernels
// (one DotsToAll per hash function — a float32-storage dataset streams its
// half-width mirror); buckets are flat counting-sort
// arenas in first-encounter order rather than per-table
// map[string][]int32. Bucket keys are a fixed uint64 mix
// (splitmix64 finalizer) folded over the k concatenated hash integers, so
// probing a query allocates nothing; a key collision merges two buckets,
// which can only ever add candidates — callers exact-filter candidates, so
// correctness is unaffected (probability ~2⁻⁶⁴ per pair regardless).
package lsh

import (
	"fmt"
	"math/rand"

	"dbsvec/internal/dist"
	"dbsvec/internal/fault"
	"dbsvec/internal/vec"
)

// Params configures a hash structure.
type Params struct {
	// Tables is the number of independent hash tables L.
	Tables int
	// Funcs is the number of concatenated hash functions k per table.
	Funcs int
	// Width is the quantization width W, typically set near the query
	// radius.
	Width float64
	// Seed drives the random projections.
	Seed int64
}

// Validate checks parameter sanity. Every rejection wraps
// fault.ErrInvalidParams.
func (p Params) Validate() error {
	if p.Tables < 1 || p.Funcs < 1 {
		return fmt.Errorf("%w: lsh: Tables %d and Funcs %d must be at least 1", fault.ErrInvalidParams, p.Tables, p.Funcs)
	}
	if !(p.Width > 0) {
		return fmt.Errorf("%w: lsh: Width %g must be positive", fault.ErrInvalidParams, p.Width)
	}
	return nil
}

// Hasher holds L tables of buckets over a dataset.
type Hasher struct {
	ds     *vec.Dataset
	params Params
	// proj is the contiguous (Tables*Funcs) × d projection matrix; row
	// t*Funcs+f is the Gaussian vector of function f in table t. offs
	// carries the matching uniform offsets b.
	proj dist.Matrix
	offs []float64
	// tables[t] is the flat bucket directory of table t.
	tables []table
}

// table is one hash table's bucket arena: slotOf maps a mixed bucket key to
// its slot in first-encounter order, and slot s owns ids
// flat[offsets[s]:offsets[s+1]] in ascending order — the same two-pass
// counting-sort layout as the grid backend's cells.
type table struct {
	slotOf  map[uint64]int32
	offsets []int32
	flat    []int32
}

// New builds the hash tables over every point of ds.
func New(ds *vec.Dataset, p Params) (*Hasher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	d := ds.Dim()
	nf := p.Tables * p.Funcs
	h := &Hasher{
		ds:     ds,
		params: p,
		proj:   dist.Matrix{Coords: make([]float64, nf*d), Dim: d},
		offs:   make([]float64, nf),
		tables: make([]table, p.Tables),
	}
	for f := 0; f < nf; f++ {
		row := h.proj.Coords[f*d : (f+1)*d]
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		h.offs[f] = rng.Float64() * p.Width
	}

	n := ds.Len()
	m := ds.Matrix()
	// Batch hashing: one dense matrix-vector product per hash function
	// fills dots, the mixed keys fold in per function, then a counting
	// sort bins each table. keys/slots scratch is reused across tables.
	dots := make([]float64, n)
	keys := make([]uint64, n)
	slots := make([]int32, n)
	for t := 0; t < p.Tables; t++ {
		for i := range keys {
			keys[i] = keySeed
		}
		for f := 0; f < p.Funcs; f++ {
			g := t*p.Funcs + f
			dist.DotsToAll(m, h.proj.Row(g), dots)
			b, w := h.offs[g], p.Width
			for i, dot := range dots {
				keys[i] = mixKey(keys[i], floor64((dot+b)/w))
			}
		}
		h.tables[t] = binKeys(keys, slots)
	}
	return h, nil
}

// binKeys counting-sorts point ids by bucket key: first pass assigns slots
// in first-encounter order and counts occupancy, second pass scatters ids
// into the flat arena, ascending within each bucket. slots is reusable
// scratch of length len(keys).
func binKeys(keys []uint64, slots []int32) table {
	tb := table{slotOf: make(map[uint64]int32)}
	var counts []int32
	for i, k := range keys {
		s, ok := tb.slotOf[k]
		if !ok {
			s = int32(len(counts))
			tb.slotOf[k] = s
			counts = append(counts, 0)
		}
		slots[i] = s
		counts[s]++
	}
	tb.offsets = make([]int32, len(counts)+1)
	for s, c := range counts {
		tb.offsets[s+1] = tb.offsets[s] + c
	}
	tb.flat = make([]int32, len(keys))
	next := counts // reuse as per-slot write cursors
	copy(next, tb.offsets[:len(counts)])
	for i := range keys {
		s := slots[i]
		tb.flat[next[s]] = int32(i)
		next[s]++
	}
	return tb
}

// keySeed is the initial accumulator of the bucket-key mix.
const keySeed uint64 = 0x8e98_cbc2_1e6a_8f29

// mixKey folds one hash integer into the running bucket key with the
// splitmix64 finalizer: a fixed, allocation-free replacement for the
// byte-serialized string keys the package used to build per probe.
func mixKey(key uint64, h int64) uint64 {
	z := key ^ uint64(h)
	z += 0x9e37_79b9_7f4a_7c15
	z ^= z >> 30
	z *= 0xbf58_476d_1ce4_e5b9
	z ^= z >> 27
	z *= 0x94d0_49bb_1331_11eb
	z ^= z >> 31
	return z
}

func floor64(v float64) int64 {
	i := int64(v)
	if v < 0 && float64(i) != v {
		i--
	}
	return i
}

// Candidates appends the ids of every point sharing at least one bucket
// with q across all tables to buf (deduplicated via the seen scratch slice,
// which must have length >= Len() and be false-initialized; it is reset
// before return). Probing allocates nothing beyond buf growth.
func (h *Hasher) Candidates(q []float64, buf []int32, seen []bool) []int32 {
	start := len(buf)
	for t := range h.tables {
		key := keySeed
		for f := 0; f < h.params.Funcs; f++ {
			g := t*h.params.Funcs + f
			v := (dist.Dot(h.proj.Row(g), q) + h.offs[g]) / h.params.Width
			key = mixKey(key, floor64(v))
		}
		tb := &h.tables[t]
		s, ok := tb.slotOf[key]
		if !ok {
			continue
		}
		for _, id := range tb.flat[tb.offsets[s]:tb.offsets[s+1]] {
			if !seen[id] {
				seen[id] = true
				buf = append(buf, id)
			}
		}
	}
	for _, id := range buf[start:] {
		seen[id] = false
	}
	return buf
}

// Len returns the number of hashed points.
func (h *Hasher) Len() int { return h.ds.Len() }
