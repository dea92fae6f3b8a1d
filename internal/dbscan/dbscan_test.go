package dbscan

import (
	"math"
	"math/rand"
	"testing"

	"dbsvec/internal/cluster"
	"dbsvec/internal/index/backend"
	"dbsvec/internal/vec"
)

// twoBlobs returns two well separated Gaussian blobs plus isolated noise.
func twoBlobs(n int, seed int64) (*vec.Dataset, int) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, 0, n+2)
	half := n / 2
	for i := 0; i < half; i++ {
		rows = append(rows, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	for i := half; i < n; i++ {
		rows = append(rows, []float64{100 + rng.NormFloat64(), 100 + rng.NormFloat64()})
	}
	// Two isolated noise points.
	rows = append(rows, []float64{50, 50}, []float64{-50, 70})
	ds, _ := vec.FromRows(rows)
	return ds, half
}

func TestTwoBlobs(t *testing.T) {
	ds, half := twoBlobs(400, 1)
	res, st, err := Run(ds, Params{Eps: 3, MinPts: 5}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Clusters != 2 {
		t.Fatalf("Clusters = %d, want 2", res.Clusters)
	}
	if res.NoiseCount() != 2 {
		t.Errorf("NoiseCount = %d, want 2", res.NoiseCount())
	}
	// All first-half points share a label; all second-half points share the
	// other.
	l0 := res.Labels[0]
	for i := 1; i < half; i++ {
		if res.Labels[i] != l0 {
			t.Fatalf("point %d label %d != %d", i, res.Labels[i], l0)
		}
	}
	l1 := res.Labels[half]
	if l1 == l0 {
		t.Fatal("blobs merged")
	}
	for i := half + 1; i < 2*half; i++ {
		if res.Labels[i] != l1 {
			t.Fatalf("point %d label %d != %d", i, res.Labels[i], l1)
		}
	}
	if st.RangeQueries != int64(ds.Len()) {
		t.Errorf("RangeQueries = %d, want one per point = %d", st.RangeQueries, ds.Len())
	}
}

func TestAllNoise(t *testing.T) {
	rows := [][]float64{{0, 0}, {10, 10}, {20, 20}}
	ds, _ := vec.FromRows(rows)
	res, _, err := Run(ds, Params{Eps: 1, MinPts: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 0 || res.NoiseCount() != 3 {
		t.Errorf("clusters=%d noise=%d, want 0,3", res.Clusters, res.NoiseCount())
	}
}

func TestSingleCluster(t *testing.T) {
	rows := make([][]float64, 50)
	for i := range rows {
		rows[i] = []float64{float64(i) * 0.1, 0}
	}
	ds, _ := vec.FromRows(rows)
	res, _, err := Run(ds, Params{Eps: 0.15, MinPts: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 1 || res.NoiseCount() != 0 {
		t.Errorf("clusters=%d noise=%d, want 1,0", res.Clusters, res.NoiseCount())
	}
}

func TestMinPtsOne(t *testing.T) {
	// With MinPts=1 every point is a core point; isolated points become
	// singleton clusters, never noise.
	ds, _ := vec.FromRows([][]float64{{0, 0}, {100, 100}})
	res, _, err := Run(ds, Params{Eps: 1, MinPts: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 2 || res.NoiseCount() != 0 {
		t.Errorf("clusters=%d noise=%d, want 2,0", res.Clusters, res.NoiseCount())
	}
}

func TestEpsZeroDuplicates(t *testing.T) {
	// eps=0: only exact duplicates are neighbors.
	ds, _ := vec.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}})
	res, _, err := Run(ds, Params{Eps: 0, MinPts: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 1 {
		t.Fatalf("clusters=%d, want 1", res.Clusters)
	}
	if res.Labels[3] != cluster.Noise {
		t.Error("singleton should be noise")
	}
}

func TestEmptyDataset(t *testing.T) {
	ds, _ := vec.FromRows(nil)
	res, _, err := Run(ds, Params{Eps: 1, MinPts: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 0 || len(res.Labels) != 0 {
		t.Error("empty dataset should yield empty result")
	}
}

func TestNilDataset(t *testing.T) {
	if _, _, err := Run(nil, Params{Eps: 1, MinPts: 2}, nil); err == nil {
		t.Error("want error for nil dataset")
	}
}

func TestBadParams(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0}})
	if _, _, err := Run(ds, Params{Eps: -1, MinPts: 2}, nil); err == nil {
		t.Error("want error for negative eps")
	}
	if _, _, err := Run(ds, Params{Eps: 1, MinPts: 0}, nil); err == nil {
		t.Error("want error for MinPts 0")
	}
}

func TestBorderPointAssignment(t *testing.T) {
	// A chain: core points at 0 and 1 apart, one border point reachable from
	// the last core point but itself non-core.
	rows := [][]float64{
		{0, 0}, {0.5, 0}, {1, 0}, {1.5, 0}, // dense run: all core with MinPts=3, eps=0.6
		{2.0, 0}, // border: within 0.6 of {1.5,0} but has only 2 neighbors
	}
	ds, _ := vec.FromRows(rows)
	res, _, err := Run(ds, Params{Eps: 0.6, MinPts: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 1 {
		t.Fatalf("clusters=%d, want 1", res.Clusters)
	}
	if res.Labels[4] != res.Labels[0] {
		t.Errorf("border point should join the cluster, got label %d", res.Labels[4])
	}
}

// Labeling must be identical across every backend of the table.
func TestIndexAgnostic(t *testing.T) {
	ds, _ := twoBlobs(600, 7)
	p := Params{Eps: 2.5, MinPts: 8}
	base, _, err := Run(ds, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range backend.Kinds() {
		build, err := kind.Builder(p.Eps, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Run(ds, p, build)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got.Clusters != base.Clusters {
			t.Fatalf("%s: clusters %d != %d", kind, got.Clusters, base.Clusters)
		}
		for i := range got.Labels {
			if (got.Labels[i] == cluster.Noise) != (base.Labels[i] == cluster.Noise) {
				t.Fatalf("%s: noise disagreement at %d", kind, i)
			}
		}
	}
}

// Invariant: every noise point has no core point within eps; every clustered
// point has at least one core point within eps (or is core itself).
func TestLabelInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rows := make([][]float64, 500)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 40, rng.Float64() * 40}
	}
	ds, _ := vec.FromRows(rows)
	p := Params{Eps: 2, MinPts: 4}
	res, _, err := Run(ds, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	coreMask, err := CoreMask(ds, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	eps2 := p.Eps * p.Eps
	for i := 0; i < ds.Len(); i++ {
		hasCoreNeighbor := false
		var coreLabel int32 = cluster.Noise
		for j := 0; j < ds.Len(); j++ {
			if coreMask[j] && ds.Dist2(i, j) <= eps2 {
				hasCoreNeighbor = true
				coreLabel = res.Labels[j]
				break
			}
		}
		if res.Labels[i] == cluster.Noise && hasCoreNeighbor {
			t.Fatalf("noise point %d has core neighbor", i)
		}
		if res.Labels[i] != cluster.Noise && !hasCoreNeighbor {
			t.Fatalf("clustered point %d has no core neighbor", i)
		}
		if coreMask[i] && res.Labels[i] == cluster.Noise {
			t.Fatalf("core point %d labeled noise", i)
		}
		_ = coreLabel
	}
	// Core-point symmetry: two core points within eps share a cluster.
	for i := 0; i < ds.Len(); i++ {
		if !coreMask[i] {
			continue
		}
		for j := i + 1; j < ds.Len(); j++ {
			if coreMask[j] && ds.Dist2(i, j) <= eps2 && res.Labels[i] != res.Labels[j] {
				t.Fatalf("core points %d,%d within eps but in different clusters", i, j)
			}
		}
	}
}

// Worst case sanity: a uniformly spread dataset where eps covers everything
// puts all points in one cluster.
func TestEpsCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{rng.Float64(), rng.Float64()}
	}
	ds, _ := vec.FromRows(rows)
	res, _, err := Run(ds, Params{Eps: math.Sqrt2, MinPts: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 1 || res.NoiseCount() != 0 {
		t.Errorf("clusters=%d noise=%d, want 1,0", res.Clusters, res.NoiseCount())
	}
}
