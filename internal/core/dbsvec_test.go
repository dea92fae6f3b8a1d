package core

import (
	"math/rand"
	"testing"

	"dbsvec/internal/cluster"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/index/kdtree"
	"dbsvec/internal/vec"
)

func gaussBlobs(centers [][]float64, per int, sd float64, noise int, span float64, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := len(centers[0])
	rows := make([][]float64, 0, len(centers)*per+noise)
	for _, c := range centers {
		for i := 0; i < per; i++ {
			p := make([]float64, d)
			for j := 0; j < d; j++ {
				p[j] = c[j] + rng.NormFloat64()*sd
			}
			rows = append(rows, p)
		}
	}
	for i := 0; i < noise; i++ {
		p := make([]float64, d)
		for j := 0; j < d; j++ {
			p[j] = rng.Float64() * span
		}
		rows = append(rows, p)
	}
	ds, _ := vec.FromRows(rows)
	return ds
}

func TestTwoBlobsBasic(t *testing.T) {
	ds := gaussBlobs([][]float64{{0, 0}, {50, 50}}, 300, 1.5, 0, 0, 1)
	res, st, err := Run(ds, Options{Eps: 3, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 2 {
		t.Fatalf("Clusters = %d, want 2", res.Clusters)
	}
	// The point of DBSVEC: far fewer range queries than points.
	if st.RangeQueries >= int64(ds.Len()) {
		t.Errorf("RangeQueries = %d, not fewer than n = %d", st.RangeQueries, ds.Len())
	}
	if st.Seeds < 2 {
		t.Errorf("Seeds = %d, want >= 2", st.Seeds)
	}
	if st.SVDDTrainings == 0 {
		t.Error("expected at least one SVDD training")
	}
}

func TestValidation(t *testing.T) {
	ds := gaussBlobs([][]float64{{0, 0}}, 10, 1, 0, 0, 2)
	cases := []Options{
		{Eps: -1, MinPts: 5},
		{Eps: 1, MinPts: 0},
		{Eps: 1, MinPts: 5, Nu: 2},
		{Eps: 1, MinPts: 5, Nu: -0.5},
		{Eps: 1, MinPts: 5, MemoryFactor: 0.5},
	}
	for i, o := range cases {
		if _, _, err := Run(ds, o); err == nil {
			t.Errorf("case %d: want validation error for %+v", i, o)
		}
	}
	if _, _, err := Run(nil, Options{Eps: 1, MinPts: 5}); err == nil {
		t.Error("want error for nil dataset")
	}
}

func TestEmptyDataset(t *testing.T) {
	ds, _ := vec.FromRows(nil)
	res, st, err := Run(ds, Options{Eps: 1, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 0 || st.RangeQueries != 0 {
		t.Error("empty run should do nothing")
	}
}

func TestAllNoise(t *testing.T) {
	ds := gaussBlobs([][]float64{{0, 0}}, 1, 0, 20, 1000, 3)
	res, st, err := Run(ds, Options{Eps: 1, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 0 {
		t.Errorf("Clusters = %d, want 0", res.Clusters)
	}
	if res.NoiseCount() != ds.Len() {
		t.Errorf("NoiseCount = %d, want %d", res.NoiseCount(), ds.Len())
	}
	if st.NoiseList != ds.Len() {
		t.Errorf("NoiseList = %d, want %d", st.NoiseList, ds.Len())
	}
}

func TestSingleDenseCluster(t *testing.T) {
	ds := gaussBlobs([][]float64{{0, 0, 0}}, 500, 2, 0, 0, 4)
	res, _, err := Run(ds, Options{Eps: 2, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 1 {
		t.Fatalf("Clusters = %d, want 1", res.Clusters)
	}
	if res.NoiseCount() > ds.Len()/20 {
		t.Errorf("too much noise in a dense blob: %d", res.NoiseCount())
	}
}

// Theorem 1 (Necessity): every DBSVEC cluster is a subset of some DBSCAN
// cluster — no DBSVEC cluster ever mixes points from two DBSCAN clusters or
// absorbs DBSCAN noise.
func TestTheorem1Necessity(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ds := gaussBlobs([][]float64{{0, 0}, {30, 0}, {15, 40}}, 200, 2, 30, 120, seed)
		p := dbscan.Params{Eps: 3, MinPts: 8}
		truth, _, err := dbscan.Run(ds, p, kdtree.Build)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Run(ds, Options{Eps: p.Eps, MinPts: p.MinPts, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// For each DBSVEC cluster, all its points must map to one DBSCAN
		// cluster... except border points, which DBSCAN may legally assign
		// to any adjacent cluster. Restrict the check to core points.
		coreMask, err := dbscan.CoreMask(ds, p, kdtree.Build)
		if err != nil {
			t.Fatal(err)
		}
		owner := make(map[int32]int32)
		for i, l := range got.Labels {
			if l < 0 || !coreMask[i] {
				continue
			}
			dl := truth.Labels[i]
			if dl == cluster.Noise {
				t.Fatalf("seed %d: DBSVEC clustered core point %d that DBSCAN calls noise", seed, i)
			}
			if prev, ok := owner[l]; ok && prev != dl {
				t.Fatalf("seed %d: DBSVEC cluster %d spans DBSCAN clusters %d and %d", seed, l, prev, dl)
			}
			owner[l] = dl
		}
		// Clustered DBSVEC points must be clustered in DBSCAN too.
		for i, l := range got.Labels {
			if l >= 0 && truth.Labels[i] == cluster.Noise {
				t.Fatalf("seed %d: point %d clustered by DBSVEC but noise in DBSCAN", seed, i)
			}
		}
	}
}

// Theorem 3 (Noise Guarantee): DBSVEC and DBSCAN find exactly the same
// noise points.
func TestTheorem3NoiseEquality(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ds := gaussBlobs([][]float64{{0, 0}, {25, 25}}, 150, 2, 40, 100, seed+10)
		p := dbscan.Params{Eps: 3, MinPts: 6}
		truth, _, err := dbscan.Run(ds, p, kdtree.Build)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Run(ds, Options{Eps: p.Eps, MinPts: p.MinPts, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Labels {
			gn := got.Labels[i] == cluster.Noise
			tn := truth.Labels[i] == cluster.Noise
			if gn != tn {
				t.Fatalf("seed %d: noise disagreement at point %d (dbsvec=%v dbscan=%v)", seed, i, gn, tn)
			}
		}
	}
}

// DBSVEC with nu -> 1 degenerates toward DBSCAN: it must find the same
// cluster count on well-separated data.
func TestHighNuMatchesDBSCANClusters(t *testing.T) {
	ds := gaussBlobs([][]float64{{0, 0}, {60, 60}, {0, 60}}, 120, 1.5, 0, 0, 5)
	p := dbscan.Params{Eps: 3, MinPts: 8}
	truth, _, _ := dbscan.Run(ds, p, nil)
	got, _, err := Run(ds, Options{Eps: p.Eps, MinPts: p.MinPts, Nu: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if got.Clusters != truth.Clusters {
		t.Errorf("clusters: dbsvec=%d dbscan=%d", got.Clusters, truth.Clusters)
	}
}

// Ablations must run and still satisfy Theorem 1 style guarantees.
func TestAblationsRun(t *testing.T) {
	ds := gaussBlobs([][]float64{{0, 0}, {40, 40}}, 200, 2, 20, 80, 6)
	opts := []Options{
		{Eps: 3, MinPts: 8, DisableWeights: true},                       // \WF
		{Eps: 3, MinPts: 8, LearnThreshold: -1},                         // \IL
		{Eps: 3, MinPts: 8, RandomKernel: true, Seed: 42},               // \OK
		{Eps: 3, MinPts: 8, NuMin: true},                                // DBSVEC_min
		{Eps: 3, MinPts: 8, Nu: 0.5, MemoryFactor: 2},                   // explicit knobs
		{Eps: 3, MinPts: 8, IndexBuilderCtx: kdtree.BuildWorkersCtx(1)}, // indexed backend
		{Eps: 3, MinPts: 8, MaxSVDDTarget: 64},                          // tiny target cap
		{Eps: 3, MinPts: 8, LearnThreshold: 1},                          // aggressive IL
	}
	for i, o := range opts {
		res, st, err := Run(ds, o)
		if err != nil {
			t.Fatalf("ablation %d: %v", i, err)
		}
		if res.Clusters < 2 {
			t.Errorf("ablation %d: clusters=%d, want >=2", i, res.Clusters)
		}
		if st.RangeQueries == 0 {
			t.Errorf("ablation %d: no range queries recorded", i)
		}
	}
}

// Sub-cluster merging: a dumbbell (two lobes joined by a dense bridge) must
// come out as one cluster even though expansion may seed both lobes
// separately.
func TestMergingDumbbell(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, 0, 900)
	for i := 0; i < 300; i++ {
		rows = append(rows, []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2})
	}
	for i := 0; i < 300; i++ {
		rows = append(rows, []float64{30 + rng.NormFloat64()*2, rng.NormFloat64() * 2})
	}
	for i := 0; i < 300; i++ { // bridge
		rows = append(rows, []float64{rng.Float64() * 30, rng.NormFloat64() * 0.5})
	}
	ds, _ := vec.FromRows(rows)
	p := dbscan.Params{Eps: 2, MinPts: 6}
	truth, _, _ := dbscan.Run(ds, p, nil)
	got, st, err := Run(ds, Options{Eps: p.Eps, MinPts: p.MinPts})
	if err != nil {
		t.Fatal(err)
	}
	if truth.Clusters != 1 {
		t.Skipf("ground truth found %d clusters; geometry assumption broken", truth.Clusters)
	}
	if got.Clusters != 1 {
		t.Errorf("dumbbell split into %d clusters (merges=%d)", got.Clusters, st.Merges)
	}
}

// Border points: DBSVEC must attach noise-list points that have a core
// neighbor (noise verification).
func TestNoiseVerificationAttachesBorder(t *testing.T) {
	// Dense line plus one point hanging off the end within eps of a core
	// point. Visit order puts the border point first so it lands on the
	// noise list.
	rows := [][]float64{{2.5, 0}} // border point visited first
	for i := 0; i < 30; i++ {
		rows = append(rows, []float64{float64(i) * 0.1, 0})
	}
	ds, _ := vec.FromRows(rows)
	res, _, err := Run(ds, Options{Eps: 0.35, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	truth, _, _ := dbscan.Run(ds, dbscan.Params{Eps: 0.35, MinPts: 4}, nil)
	if (res.Labels[0] == cluster.Noise) != (truth.Labels[0] == cluster.Noise) {
		t.Errorf("border/noise disagreement: dbsvec=%d dbscan=%d", res.Labels[0], truth.Labels[0])
	}
}

// The θ bound: total range queries must stay well below n on clustered data.
func TestThetaFarBelowN(t *testing.T) {
	ds := gaussBlobs([][]float64{{0, 0}, {80, 80}, {0, 80}, {80, 0}}, 1000, 3, 50, 160, 8)
	_, st, err := Run(ds, Options{Eps: 4, MinPts: 20})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(ds.Len())
	if st.RangeQueries > n/2 {
		t.Errorf("RangeQueries = %d, want < n/2 = %d", st.RangeQueries, n/2)
	}
	t.Logf("n=%d rangeQueries=%d rangeCounts=%d seeds=%d svs=%d merges=%d noiselist=%d trainings=%d",
		n, st.RangeQueries, st.RangeCounts, st.Seeds, st.SupportVectors, st.Merges, st.NoiseList, st.SVDDTrainings)
}

func TestDeterminism(t *testing.T) {
	ds := gaussBlobs([][]float64{{0, 0}, {30, 30}}, 200, 2, 20, 60, 9)
	a, _, err := Run(ds, Options{Eps: 3, MinPts: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(ds, Options{Eps: 3, MinPts: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("nondeterministic labels at %d", i)
		}
	}
}

func BenchmarkDBSVEC4Blobs(b *testing.B) {
	ds := gaussBlobs([][]float64{{0, 0}, {80, 80}, {0, 80}, {80, 0}}, 2000, 3, 100, 160, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(ds, Options{Eps: 4, MinPts: 20}); err != nil {
			b.Fatal(err)
		}
	}
}
