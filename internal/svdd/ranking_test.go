package svdd

import (
	"math/rand"
	"testing"

	"dbsvec/internal/dist"
	"dbsvec/internal/vec"
)

func TestTopSupportVectorsBudget(t *testing.T) {
	ds, _ := blobWithOutliers(200, 21)
	m, err := Train(ds, allIDs(ds.Len()), Config{Nu: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	all := m.SupportVectors()
	if len(all) < 10 {
		t.Skipf("too few SVs (%d) for a meaningful budget test", len(all))
	}
	top := m.TopSupportVectors(5)
	if len(top) != 5 {
		t.Fatalf("budget 5 returned %d", len(top))
	}
	// Budget larger than SV count returns all.
	if got := m.TopSupportVectors(len(all) + 10); len(got) != len(all) {
		t.Errorf("oversized budget: %d, want %d", len(got), len(all))
	}
	// Budget 0 returns all.
	if got := m.TopSupportVectors(0); len(got) != len(all) {
		t.Errorf("zero budget: %d, want %d", len(got), len(all))
	}
	// Top SVs must be a subset of all SVs.
	set := map[int32]bool{}
	for _, id := range all {
		set[id] = true
	}
	for _, id := range top {
		if !set[id] {
			t.Errorf("top SV %d not in full SV set", id)
		}
	}
}

// The top-ranked support vectors (by feature-space distance from the
// center) must be farther from the input-space centroid on average than the
// bottom-ranked ones for a compact blob.
func TestTopSupportVectorsAreOutermost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 400)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
	}
	ds, _ := vec.FromRows(rows)
	m, err := Train(ds, allIDs(400), Config{Nu: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	all := m.SupportVectors()
	if len(all) < 12 {
		t.Skipf("too few SVs: %d", len(all))
	}
	k := len(all) / 3
	top := m.TopSupportVectors(k)
	mean := ds.Mean(allIDs(400))
	avg := func(ids []int32) float64 {
		var s float64
		for _, id := range ids {
			s += dist.Dist(ds.Point(int(id)), mean)
		}
		return s / float64(len(ids))
	}
	topSet := map[int32]bool{}
	for _, id := range top {
		topSet[id] = true
	}
	var rest []int32
	for _, id := range all {
		if !topSet[id] {
			rest = append(rest, id)
		}
	}
	if avg(top) <= avg(rest) {
		t.Errorf("top SVs (avg dist %.3f) should be farther out than the rest (%.3f)", avg(top), avg(rest))
	}
}

// The internally computed adaptive weights must behave like the exact Eq. 7
// path: a freshly added far point should out-rank (i.e. be more likely a
// support vector than) a long-participating central point.
func TestTimesPathMatchesIntent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 300
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	// Append fresh frontier points far from the blob.
	for i := 0; i < 20; i++ {
		rows = append(rows, []float64{6 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3})
	}
	ds, _ := vec.FromRows(rows)
	ids := allIDs(len(rows))
	times := make([]int, len(rows))
	for i := 0; i < n; i++ {
		times[i] = 3 // old points
	}
	m, err := Train(ds, ids, Config{Nu: 0.1, Times: times})
	if err != nil {
		t.Fatal(err)
	}
	top := m.TopSupportVectors(10)
	freshCount := 0
	for _, id := range top {
		if int(id) >= n {
			freshCount++
		}
	}
	if freshCount < 5 {
		t.Errorf("only %d/10 top SVs are fresh frontier points", freshCount)
	}
}

// The lazy (pivot-sampled) weight path and the dense path must agree on the
// weight ordering for the same data. We exercise the lazy path with a
// target above the default maximum SVDD target size of 1024.
func TestLazyMatrixPathAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const big = 1074
	rows := make([][]float64, big)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
	}
	ds, _ := vec.FromRows(rows)
	times := make([]int, big)
	m, err := Train(ds, allIDs(big), Config{Nu: 0.1, Times: times})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.SumAlpha(); s < 0.999 || s > 1.001 {
		t.Errorf("lazy path sum alpha = %v", s)
	}
	for i, a := range m.Alpha {
		if a < -1e-12 || a > m.Upper[i]+1e-12 {
			t.Errorf("lazy path alpha[%d]=%v out of bounds", i, a)
		}
	}
	// Boundary behaviour preserved: top SVs beyond median distance.
	mean := ds.Mean(allIDs(big))
	top := m.TopSupportVectors(10)
	beyond := 0
	for _, id := range top {
		if dist.Dist(ds.Point(int(id)), mean) > 2 {
			beyond++
		}
	}
	if beyond < 7 {
		t.Errorf("only %d/10 lazy-path top SVs on the boundary", beyond)
	}
}
