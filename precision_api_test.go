package dbsvec

import (
	"bytes"
	"math/rand"
	"testing"

	"dbsvec/internal/index/backend"
)

// gaussRows draws three well-separated Gaussian blobs with full-precision
// coordinates, so the F32 conversion below performs a genuine quantization.
func gaussRows(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := [][2]float64{{0, 0}, {60, 0}, {30, 60}}
	rows := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		rows = append(rows, []float64{c[0] + rng.NormFloat64()*2, c[1] + rng.NormFloat64()*2})
	}
	return rows
}

// TestPrecisionModesAgree is the end-to-end acceptance pin of float32
// storage: the same clustering run in f64 and f32 mode must produce
// near-identical partitions (ARI >= 0.999). Quantization moves coordinates
// by parts in 2^24, far below any cluster separation scale, so only a
// vanishing fraction of borderline eps decisions may flip.
func TestPrecisionModesAgree(t *testing.T) {
	base, err := NewDataset(gaussRows(1500, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Pin the f64 side explicitly so the test also holds under a
	// DBSVEC_PRECISION=f32 process default (constructors then quantize, and
	// the comparison degenerates to two runs over the same quantized data).
	ds, err := base.ToPrecision(PrecisionF64)
	if err != nil {
		t.Fatal(err)
	}
	ds32, err := ds.ToPrecision(PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Precision() != PrecisionF64 || ds32.Precision() != PrecisionF32 {
		t.Fatalf("precisions = %v / %v", ds.Precision(), ds32.Precision())
	}
	opts := Options{Eps: 4, MinPts: 8, Seed: 6}
	res64, err := Cluster(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	res32, err := Cluster(ds32, opts)
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(res64, res32)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.999 {
		t.Fatalf("f64 vs f32 clustering ARI = %v, want >= 0.999", ari)
	}
	if res32.Clusters != res64.Clusters {
		t.Errorf("cluster counts differ: f32 %d, f64 %d", res32.Clusters, res64.Clusters)
	}

	// The model artifact records the storage mode it was trained in, and the
	// round-trip through the codec preserves it.
	m := res32.Model()
	if m == nil {
		t.Fatal("no model on result")
	}
	if m.Precision() != PrecisionF32 {
		t.Fatalf("model precision = %v, want f32", m.Precision())
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Precision() != PrecisionF32 {
		t.Fatalf("loaded model precision = %v, want f32", loaded.Precision())
	}

	// Every index backend agrees with the default in f32 mode too.
	for _, kind := range backend.Kinds() {
		res, err := Cluster(ds32, Options{Eps: 4, MinPts: 8, Seed: 6, Index: kind})
		if err != nil {
			t.Fatalf("index %v: %v", kind, err)
		}
		ari, err := ARI(res32, res)
		if err != nil {
			t.Fatal(err)
		}
		if ari < 0.999 {
			t.Fatalf("index %v: ARI vs default %v, want >= 0.999", kind, ari)
		}
	}
}

// TestDeterminismWithinPrecisionMode: within one storage mode a repeated run
// with the same seed is exactly reproducible — f32 storage keeps the
// repository's determinism contract intact.
func TestDeterminismWithinPrecisionMode(t *testing.T) {
	ds, err := NewDataset(gaussRows(800, 7))
	if err != nil {
		t.Fatal(err)
	}
	ds32, err := ds.ToPrecision(PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Eps: 4, MinPts: 8, Seed: 7}
	a, err := Cluster(ds32, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(ds32, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Labels) != len(b.Labels) {
		t.Fatal("label lengths differ")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("label %d differs between identical f32 runs", i)
		}
	}
}
