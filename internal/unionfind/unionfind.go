// Package unionfind provides a disjoint-set forest with union by rank and
// path halving. DBSVEC uses it to implement the paper's Merge operation
// (Algorithm 2 line 11, Algorithm 3 line 13): cluster ids are union-find
// elements, and sub-cluster merges become O(α(n)) unions instead of
// relabeling scans.
package unionfind

// DSU is a disjoint-set forest over elements 0..n-1. The zero value is an
// empty forest; use New or Add.
type DSU struct {
	parent []int32
	rank   []int8
	sets   int
}

// New returns a forest of n singleton sets.
func New(n int) *DSU {
	d := &DSU{parent: make([]int32, n), rank: make([]int8, n), sets: n}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Len returns the number of elements.
func (d *DSU) Len() int { return len(d.parent) }

// Sets returns the current number of disjoint sets.
func (d *DSU) Sets() int { return d.sets }

// Add appends one new singleton element and returns its id.
func (d *DSU) Add() int32 {
	id := int32(len(d.parent))
	d.parent = append(d.parent, id)
	d.rank = append(d.rank, 0)
	d.sets++
	return id
}

// Find returns the canonical representative of x, compressing paths.
func (d *DSU) Find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

// Union merges the sets containing a and b and reports whether a merge
// actually happened (false when they were already joined).
func (d *DSU) Union(a, b int32) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	d.sets--
	return true
}

// UnionBatch merges every (pairs[2i], pairs[2i+1]) edge and returns the
// number of merges that actually happened. The shard boundary merge feeds
// thousands of halo agreement edges through this in one call; batching skips
// the per-call function overhead of repeated Union on the hot path while
// producing the identical partition (unions commute for the final sets).
func (d *DSU) UnionBatch(pairs []int32) int {
	merged := 0
	for i := 0; i+1 < len(pairs); i += 2 {
		if d.Union(pairs[i], pairs[i+1]) {
			merged++
		}
	}
	return merged
}

// Same reports whether a and b belong to the same set.
func (d *DSU) Same(a, b int32) bool { return d.Find(a) == d.Find(b) }

// Canonical returns a dense relabeling: for every element, the 0-based index
// of its set in first-seen order. Useful for turning union-find state into
// final cluster ids.
func (d *DSU) Canonical() []int32 {
	out := make([]int32, len(d.parent))
	next := int32(0)
	remap := make(map[int32]int32, d.sets)
	for i := range d.parent {
		r := d.Find(int32(i))
		c, ok := remap[r]
		if !ok {
			c = next
			remap[r] = c
			next++
		}
		out[i] = c
	}
	return out
}
