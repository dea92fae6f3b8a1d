package dbsvec

import (
	"bytes"
	"strings"
	"testing"

	"dbsvec/internal/data"
	"dbsvec/internal/index/backend"
)

// TestEndToEndPipeline drives the full public workflow: generate → cluster
// with every algorithm → score → render → serialize → re-load.
func TestEndToEndPipeline(t *testing.T) {
	raw := data.Blobs(1500, 2, 4, 2, 100, 0.05, 3)
	ds, err := FromFlat(append([]float64(nil), raw.Coords()...), 2)
	if err != nil {
		t.Fatal(err)
	}
	const (
		eps    = 3.0
		minPts = 8
	)

	exact, err := DBSCAN(ds, eps, minPts, IndexKDTree)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Clusters != 4 {
		t.Logf("note: ground truth found %d clusters (expected ~4)", exact.Clusters)
	}

	fast, err := Cluster(ds, Options{Eps: eps, MinPts: minPts, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Quality gates.
	rec, err := PairRecall(exact, fast)
	if err != nil {
		t.Fatal(err)
	}
	if rec < 0.98 {
		t.Errorf("pipeline recall %v below 0.98", rec)
	}
	agree, err := NoiseAgreement(exact, fast)
	if err != nil {
		t.Fatal(err)
	}
	if agree != 1 {
		t.Errorf("noise agreement %v, want 1", agree)
	}
	comp, err := Compactness(ds, fast)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := Separation(ds, fast)
	if err != nil {
		t.Fatal(err)
	}
	if comp <= 0 {
		t.Errorf("compactness %v should be positive for separated blobs", comp)
	}
	if sep <= 0 {
		t.Errorf("separation %v should be positive", sep)
	}

	// Render.
	var svg bytes.Buffer
	if err := WriteSVG(&svg, ds, fast, PlotOptions{Title: "pipeline"}); err != nil {
		t.Fatal(err)
	}
	if strings.Count(svg.String(), "<circle") != ds.Len() {
		t.Errorf("SVG circle count %d != %d points", strings.Count(svg.String(), "<circle"), ds.Len())
	}

	// Serialize with labels and re-load the coordinates.
	var csv bytes.Buffer
	if err := ds.WriteCSV(&csv, fast); err != nil {
		t.Fatal(err)
	}
	reloaded, err := ReadCSV(strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != ds.Len() || reloaded.Dim() != 3 { // 2 dims + label column
		t.Errorf("reloaded %dx%d, want %dx3", reloaded.Len(), reloaded.Dim(), ds.Len())
	}
	// The label column must match the result labels.
	for i := 0; i < reloaded.Len(); i++ {
		if int32(reloaded.Point(i)[2]) != fast.Labels[i] {
			t.Fatalf("label column mismatch at %d", i)
		}
	}
}

// TestCrossAlgorithmARI checks that every exact algorithm achieves ARI 1
// against DBSCAN (up to noise conventions) while the approximations stay
// high.
func TestCrossAlgorithmARI(t *testing.T) {
	raw := data.Blobs(1000, 3, 3, 2, 100, 0.03, 4)
	ds, err := FromFlat(append([]float64(nil), raw.Coords()...), 3)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := DBSCAN(ds, 4, 8, IndexRTree)
	if err != nil {
		t.Fatal(err)
	}
	nq, err := NQDBSCAN(ds, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(exact, nq)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.9999 {
		t.Errorf("NQ-DBSCAN ARI %v, want 1 (exact algorithm)", ari)
	}
	fast, err := Cluster(ds, Options{Eps: 4, MinPts: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ari, err = ARI(exact, fast)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.98 {
		t.Errorf("DBSVEC ARI %v below 0.98", ari)
	}
}

// TestIndexBackendsMatchLinear ensures no backend of the table changes
// DBSVEC's output: the same clusters and the same noise as the default
// linear scan.
func TestIndexBackendsMatchLinear(t *testing.T) {
	raw := data.Blobs(800, 2, 2, 2, 100, 0.05, 5)
	ds, err := FromFlat(append([]float64(nil), raw.Coords()...), 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Cluster(ds, Options{Eps: 3, MinPts: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range backend.Kinds() {
		b, err := Cluster(ds, Options{Eps: 3, MinPts: 8, Seed: 5, Index: kind})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if a.Clusters != b.Clusters {
			t.Fatalf("%v: cluster counts differ: %d vs %d", kind, a.Clusters, b.Clusters)
		}
		for i := range a.Labels {
			if (a.Labels[i] == Noise) != (b.Labels[i] == Noise) {
				t.Fatalf("%v: noise status differs at %d", kind, i)
			}
		}
	}
}
