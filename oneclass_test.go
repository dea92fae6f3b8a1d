package dbsvec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func ringRows(n int, r float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		theta := rng.Float64() * 2 * math.Pi
		rr := r + rng.NormFloat64()*0.3
		rows[i] = []float64{rr * math.Cos(theta), rr * math.Sin(theta)}
	}
	return rows
}

func TestTrainOneClassBasics(t *testing.T) {
	ds, err := NewDataset(ringRows(300, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainOneClass(ds, OneClassOptions{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.SupportVectors()) == 0 {
		t.Fatal("no support vectors")
	}
	if m.Sigma() <= 0 {
		t.Errorf("sigma = %v", m.Sigma())
	}
	// A training point should be inside or near the boundary; a far point
	// outside.
	inside := 0
	for i := 0; i < ds.Len(); i++ {
		if m.Contains(ds.Point(i)) {
			inside++
		}
	}
	if frac := float64(inside) / float64(ds.Len()); frac < 0.8 {
		t.Errorf("only %.0f%% of training points inside the boundary", frac*100)
	}
	if m.Contains([]float64{100, 100}) {
		t.Error("far point classified as normal")
	}
	if m.Score([]float64{100, 100}) <= 0 {
		t.Error("far point should have positive score")
	}
}

func TestTrainOneClassErrors(t *testing.T) {
	if _, err := TrainOneClass(nil, OneClassOptions{}); err == nil {
		t.Error("nil dataset should error")
	}
	empty, _ := NewDataset(nil)
	if _, err := TrainOneClass(empty, OneClassOptions{}); err == nil {
		t.Error("empty dataset should error")
	}
}

// TestTrainOneClassRejectsInvalidOptions: every malformed option, NaN
// included, is rejected up front with ErrInvalidParams instead of training
// a NaN-scoring model, burning the iteration cap or returning an untrained
// model.
func TestTrainOneClassRejectsInvalidOptions(t *testing.T) {
	ds, err := NewDataset(ringRows(400, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for name, opts := range map[string]OneClassOptions{
		"nu>1":      {Nu: 2},
		"nu<0":      {Nu: -0.1},
		"nu NaN":    {Nu: nan},
		"sigma<0":   {Sigma: -1},
		"sigma NaN": {Sigma: nan},
		"maxiter<0": {MaxIter: -5},
	} {
		m, err := TrainOneClass(ds, opts)
		if !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%s: err = %v, want ErrInvalidParams", name, err)
		}
		if m != nil {
			t.Errorf("%s: returned a model alongside the error", name)
		}
	}
}

func TestTrainOneClassSigmaOverride(t *testing.T) {
	ds, _ := NewDataset(ringRows(200, 8, 2))
	m, err := TrainOneClass(ds, OneClassOptions{Nu: 0.1, Sigma: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sigma() != 2.5 {
		t.Errorf("sigma = %v, want 2.5", m.Sigma())
	}
}

func TestDBSCANParallelPublic(t *testing.T) {
	ds, _ := NewDataset(blobRows(600, 11))
	seq, err := DBSCAN(ds, 4, 8, IndexKDTree)
	if err != nil {
		t.Fatal(err)
	}
	par, err := DBSCANParallel(ds, 4, 8, IndexKDTree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if par.Clusters != seq.Clusters {
		t.Fatalf("clusters %d != %d", par.Clusters, seq.Clusters)
	}
	agree, err := NoiseAgreement(seq, par)
	if err != nil {
		t.Fatal(err)
	}
	if agree != 1 {
		t.Errorf("noise agreement %v", agree)
	}
	if _, err := DBSCANParallel(nil, 4, 8, IndexLinear, 0); err == nil {
		t.Error("nil dataset should error")
	}
}

// TestOneClassSolveMetadata covers the surfaced solve introspection: a
// normal solve converges with a positive iteration count and records the ν
// actually used; a truncated solve reports Converged() == false alongside
// ErrNotConverged and a usable boundary.
func TestOneClassSolveMetadata(t *testing.T) {
	ds, err := NewDataset(ringRows(300, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainOneClass(ds, OneClassOptions{Nu: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Converged() {
		t.Error("full solve did not converge")
	}
	if m.Iterations() <= 0 {
		t.Errorf("Iterations = %d, want positive", m.Iterations())
	}
	if m.Nu() != 0.2 {
		t.Errorf("Nu = %v, want the configured 0.2", m.Nu())
	}

	trunc, err := TrainOneClass(ds, OneClassOptions{Nu: 0.2, MaxIter: 3})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("MaxIter=3: err = %v, want ErrNotConverged", err)
	}
	if trunc == nil {
		t.Fatal("truncated solve returned no model")
	}
	if trunc.Converged() {
		t.Error("truncated solve claims convergence")
	}
	if trunc.Iterations() > 3 {
		t.Errorf("truncated solve ran %d iterations past the cap", trunc.Iterations())
	}
}

// TestOneClassSaveLoad: the standalone model round-trips through the shared
// model codec — scores are bit-identical after reload, the solve metadata
// survives, and save → load → save is byte-identical.
func TestOneClassSaveLoad(t *testing.T) {
	ds, err := NewDataset(ringRows(400, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainOneClass(ds, OneClassOptions{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	loaded, err := LoadOneClass(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 200; q++ {
		x := []float64{rng.Float64()*30 - 15, rng.Float64()*30 - 15}
		if a, b := m.Score(x), loaded.Score(x); a != b {
			t.Fatalf("query %d: score drifted across save/load: %v != %v", q, a, b)
		}
	}
	a, b := m.SupportVectors(), loaded.SupportVectors()
	if len(a) != len(b) {
		t.Fatalf("SV count drifted: %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SV %d drifted", i)
		}
	}
	if loaded.Sigma() != m.Sigma() || loaded.Nu() != m.Nu() ||
		loaded.Converged() != m.Converged() || loaded.Iterations() != m.Iterations() {
		t.Fatal("solve metadata drifted across save/load")
	}
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatal("save → load → save is not byte-identical")
	}
}
