package dbsvec

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func blobRows(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, 0, n)
	for i := 0; i < n/2; i++ {
		rows = append(rows, []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2})
	}
	for i := n / 2; i < n; i++ {
		rows = append(rows, []float64{60 + rng.NormFloat64()*2, 60 + rng.NormFloat64()*2})
	}
	return rows
}

func TestPublicClusterQuickstart(t *testing.T) {
	ds, err := NewDataset(blobRows(400, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Cluster(ds, Options{Eps: 4, MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 2 {
		t.Fatalf("Clusters = %d, want 2", res.Clusters)
	}
	if len(res.Labels) != 400 {
		t.Fatalf("Labels length %d", len(res.Labels))
	}
	if res.Stats.RangeQueries == 0 || res.Stats.SVDDTrainings == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	sizes := res.ClusterSizes()
	if len(sizes) != 2 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestAllAlgorithmsAgreeOnEasyData(t *testing.T) {
	ds, _ := NewDataset(blobRows(600, 2))
	exact, err := DBSCAN(ds, 4, 8, IndexRTree)
	if err != nil {
		t.Fatal(err)
	}
	type runner struct {
		name string
		run  func() (*Result, error)
	}
	runners := []runner{
		{"dbsvec", func() (*Result, error) { return Cluster(ds, Options{Eps: 4, MinPts: 8}) }},
		{"dbsvec-kdtree", func() (*Result, error) { return Cluster(ds, Options{Eps: 4, MinPts: 8, Index: IndexKDTree}) }},
		{"dbsvec-rproj", func() (*Result, error) { return Cluster(ds, Options{Eps: 4, MinPts: 8, Index: IndexRProj}) }},
		{"dbscan-parallel", func() (*Result, error) { return DBSCANParallel(ds, 4, 8, IndexLinear, 0) }},
		{"rho", func() (*Result, error) { return RhoApproximate(ds, RhoOptions{Eps: 4, MinPts: 8}) }},
		{"nq", func() (*Result, error) { return NQDBSCAN(ds, 4, 8) }},
		{"dbscan-kd", func() (*Result, error) { return DBSCAN(ds, 4, 8, IndexKDTree) }},
	}
	for _, r := range runners {
		got, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		rec, err := PairRecall(exact, got)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if rec < 0.99 {
			t.Errorf("%s: recall %v on trivially separable data", r.name, rec)
		}
	}
	// DBSCAN-LSH is allowed to be lossier but must still work.
	lshRes, err := DBSCANLSH(ds, LSHOptions{Eps: 4, MinPts: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := PairRecall(exact, lshRes); rec < 0.5 {
		t.Errorf("lsh recall %v unreasonably low", rec)
	}
}

func TestKMeansPublic(t *testing.T) {
	ds, _ := NewDataset(blobRows(200, 3))
	km, err := KMeans(ds, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if km.Clusters != 2 || len(km.Centers) != 2 {
		t.Fatalf("k-means: %d clusters, %d centers", km.Clusters, len(km.Centers))
	}
	if km.Inertia <= 0 {
		t.Errorf("inertia = %v", km.Inertia)
	}
	c, err := Compactness(ds, km.Result)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Separation(ds, km.Result)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.5 {
		t.Errorf("compactness %v low for separated blobs", c)
	}
	if s <= 0 {
		t.Errorf("separation %v", s)
	}
}

// Theorem 1 as a metric statement: DBSVEC's pair precision against DBSCAN
// must be (near) perfect — splits cost recall, never precision.
func TestTheorem1AsPrecision(t *testing.T) {
	ds, _ := NewDataset(blobRows(800, 21))
	exact, err := DBSCAN(ds, 4, 8, IndexKDTree)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Cluster(ds, Options{Eps: 4, MinPts: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	prec, err := PairPrecision(exact, fast)
	if err != nil {
		t.Fatal(err)
	}
	if prec < 0.999 {
		t.Errorf("pair precision %v, Theorem 1 predicts ~1", prec)
	}
	f1, err := PairF1(exact, fast)
	if err != nil {
		t.Fatal(err)
	}
	if f1 < 0.98 {
		t.Errorf("pair F1 %v unexpectedly low", f1)
	}
}

func TestNoiseAgreementPublic(t *testing.T) {
	ds, _ := NewDataset(blobRows(300, 4))
	a, err := Cluster(ds, Options{Eps: 4, MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DBSCAN(ds, 4, 8, IndexLinear)
	if err != nil {
		t.Fatal(err)
	}
	agree, err := NoiseAgreement(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if agree != 1 {
		t.Errorf("noise agreement = %v, want 1 (Theorem 3)", agree)
	}
}

func TestCSVPublicRoundTrip(t *testing.T) {
	in := "x,y\n1,2\n3,4\n100,200\n"
	ds, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 || ds.Dim() != 2 {
		t.Fatalf("parsed %dx%d", ds.Len(), ds.Dim())
	}
	res, err := Cluster(ds, Options{Eps: 5, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines", len(lines))
	}
	for _, l := range lines {
		if strings.Count(l, ",") != 2 {
			t.Fatalf("line %q should have 3 columns", l)
		}
	}
}

func TestNormalize(t *testing.T) {
	ds, _ := NewDataset([][]float64{{0, 0}, {10, 5}})
	ds.Normalize(1e5)
	if got := ds.Point(1)[0]; got != 1e5 {
		t.Errorf("normalized max = %v, want 1e5", got)
	}
}

func TestPublicErrors(t *testing.T) {
	if _, err := Cluster(nil, Options{Eps: 1, MinPts: 2}); err == nil {
		t.Error("nil dataset should error")
	}
	if _, err := DBSCAN(nil, 1, 2, IndexLinear); err == nil {
		t.Error("nil dataset should error")
	}
	ds, _ := NewDataset([][]float64{{0, 0}})
	if _, err := Cluster(ds, Options{Eps: -1, MinPts: 2}); err == nil {
		t.Error("bad eps should error")
	}
	if _, err := Cluster(ds, Options{Eps: 1, MinPts: 2, Index: IndexKind(99)}); err == nil {
		t.Error("unknown index should error")
	}
	if _, err := FromFlat([]float64{1, 2, 3}, 2); err == nil {
		t.Error("misaligned flat data should error")
	}
	if _, err := KMeans(nil, 2, 0); err == nil {
		t.Error("nil dataset should error")
	}
	if _, err := NQDBSCAN(nil, 1, 2); err == nil {
		t.Error("nil dataset should error")
	}
	if _, err := RhoApproximate(nil, RhoOptions{Eps: 1, MinPts: 2}); err == nil {
		t.Error("nil dataset should error")
	}
	if _, err := DBSCANLSH(nil, LSHOptions{Eps: 1, MinPts: 2}); err == nil {
		t.Error("nil dataset should error")
	}
}
