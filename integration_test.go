package dbsvec

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dbsvec/internal/data"
	"dbsvec/internal/index/backend"
	"dbsvec/internal/vec"
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

// TestIndexBackendsMatchLinear pins that the index backend changes only the
// speed of a run. For every kind of the table, DBSVEC's labels, every
// deterministic Stats counter and the saved model bytes, and the labels of
// DBSCAN and parallel DBSCAN, must equal the linear scan's. The two
// SeedSpreader datasets are ones where DBSVEC's labels and parallel
// DBSCAN's border labels change with the order an index returns neighbors
// in, unless the algorithms fix that order themselves.
func TestIndexBackendsMatchLinear(t *testing.T) {
	blobs := data.Blobs(800, 2, 2, 2, 100, 0.05, 5)
	cases := []struct {
		name   string
		raw    *vec.Dataset
		eps    float64
		minPts int
	}{
		{"blobs2d", blobs, 3, 8},
		{"spreader65", data.SeedSpreader{N: 20000, D: 8, Seed: 65}.Generate(), 2000, 100},
		{"spreader66", data.SeedSpreader{N: 20000, D: 8, Seed: 66}.Generate(), 2000, 100},
	}
	for _, tc := range cases {
		ds, err := FromFlat(tc.raw.Coords(), tc.raw.Dim())
		if err != nil {
			t.Fatal(err)
		}
		want := runBackend(t, ds, tc.eps, tc.minPts, IndexLinear)
		for _, kind := range backend.Kinds() {
			if kind == IndexLinear {
				continue
			}
			got := runBackend(t, ds, tc.eps, tc.minPts, kind)
			for _, c := range []struct {
				what      string
				got, want []int32
			}{{"Cluster", got.labels, want.labels}, {"DBSCAN", got.dbscan, want.dbscan}, {"DBSCANParallel", got.pdbscan, want.pdbscan}} {
				if !slices.Equal(c.got, c.want) {
					t.Errorf("%s/%v: %s labels differ from linear", tc.name, kind, c.what)
				}
			}
			if got.stats != want.stats {
				t.Errorf("%s/%v: stats %+v, linear %+v", tc.name, kind, got.stats, want.stats)
			}
			if !bytes.Equal(got.model, want.model) {
				t.Errorf("%s/%v: saved model differs from linear", tc.name, kind)
			}
		}
	}
}

// backendOutput is what TestIndexBackendsMatchLinear compares across backends:
// stats keeps only the deterministic counters.
type backendOutput struct {
	labels, dbscan, pdbscan []int32
	stats                   CoreStats
	model                   []byte
}

func runBackend(t *testing.T, ds *Dataset, eps float64, minPts int, kind IndexKind) backendOutput {
	t.Helper()
	res, err := Cluster(ds, Options{Eps: eps, MinPts: minPts, Seed: 5, Index: kind})
	if err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	var model bytes.Buffer
	if err := res.Model().Save(&model); err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	exact, err := DBSCAN(ds, eps, minPts, kind)
	if err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	par, err := DBSCANParallel(ds, eps, minPts, kind, 0)
	if err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	st := res.Stats.CoreStats
	st.IndexBuild, st.Phases = 0, PhaseTimes{}
	st.SVDD.Fill, st.SVDD.Solve, st.SVDD.Finish = 0, 0, 0
	return backendOutput{labels: res.Labels, dbscan: exact.Labels, pdbscan: par.Labels, stats: st, model: model.Bytes()}
}
