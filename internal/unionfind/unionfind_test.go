package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	d := New(5)
	if d.Sets() != 5 || d.Len() != 5 {
		t.Fatalf("fresh forest: sets=%d len=%d", d.Sets(), d.Len())
	}
	if !d.Union(0, 1) {
		t.Error("first union should merge")
	}
	if d.Union(1, 0) {
		t.Error("repeat union should be a no-op")
	}
	if !d.Same(0, 1) || d.Same(0, 2) {
		t.Error("Same wrong after union")
	}
	if d.Sets() != 4 {
		t.Errorf("sets = %d, want 4", d.Sets())
	}
}

func TestAddGrow(t *testing.T) {
	d := New(0)
	id := d.Add()
	if id != 0 || d.Len() != 1 {
		t.Fatalf("Add returned %d, len %d", id, d.Len())
	}
	for i := 1; i < 10; i++ {
		if id := d.Add(); id != int32(i) {
			t.Fatalf("Add returned %d, want %d", id, i)
		}
	}
	if d.Len() != 10 || d.Sets() != 10 {
		t.Fatalf("after ten Adds: len=%d sets=%d", d.Len(), d.Sets())
	}
}

func TestCanonical(t *testing.T) {
	d := New(6)
	d.Union(0, 3)
	d.Union(3, 5)
	d.Union(1, 2)
	c := d.Canonical()
	if c[0] != c[3] || c[3] != c[5] {
		t.Errorf("0,3,5 should share a label: %v", c)
	}
	if c[1] != c[2] || c[1] == c[0] {
		t.Errorf("1,2 should share a distinct label: %v", c)
	}
	if c[4] == c[0] || c[4] == c[1] {
		t.Errorf("4 should be alone: %v", c)
	}
	// Labels must be dense starting at 0.
	max := int32(0)
	for _, v := range c {
		if v > max {
			max = v
		}
	}
	if int(max)+1 != d.Sets() {
		t.Errorf("labels not dense: max=%d sets=%d", max, d.Sets())
	}
}

// Property: transitivity — after arbitrary unions, Same is an equivalence
// relation consistent with an independently tracked naive partition.
func TestAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		d := New(n)
		naive := make([]int, n)
		for i := range naive {
			naive[i] = i
		}
		relabel := func(from, to int) {
			for i := range naive {
				if naive[i] == from {
					naive[i] = to
				}
			}
		}
		for op := 0; op < 120; op++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			merged := d.Union(a, b)
			if merged != (naive[a] != naive[b]) {
				return false
			}
			relabel(naive[b], naive[a])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d.Same(int32(i), int32(j)) != (naive[i] == naive[j]) {
					return false
				}
			}
		}
		// Sets() must equal distinct labels in naive.
		seen := map[int]bool{}
		for _, v := range naive {
			seen[v] = true
		}
		return d.Sets() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 10000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := New(n)
		for j := 0; j < n; j++ {
			d.Union(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
	}
}
