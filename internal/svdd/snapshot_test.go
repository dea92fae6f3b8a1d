package svdd

import (
	"math"
	"math/rand"
	"testing"

	"dbsvec/internal/vec"
)

// testBlobs generates Gaussian blobs without importing internal/data (which
// imports this package for the model codec and would form a test cycle).
func testBlobs(t *testing.T, n, d int, seed int64) *vec.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 3)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = rng.Float64() * 500
		}
	}
	coords := make([]float64, 0, n*d)
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		for j := 0; j < d; j++ {
			coords = append(coords, c[j]+rng.NormFloat64()*20)
		}
	}
	ds, err := vec.NewDataset(coords, d)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func trainedModel(t *testing.T, n, d int, seed int64) (*vec.Dataset, *Model) {
	t.Helper()
	ds := testBlobs(t, n, d, seed)
	m, err := Train(ds, vec.Iota(ds.Len()), Config{Nu: 0.1})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return ds, m
}

// TestSnapshotEvalBitIdentical pins the detachment contract: a model rebuilt
// from its snapshot evaluates every query point to the exact same bits as
// the training-attached original — the snapshot keeps the SV iteration
// order, the multipliers, and the cached Eq. 12 terms unchanged.
func TestSnapshotEvalBitIdentical(t *testing.T) {
	_, m := trainedModel(t, 300, 4, 7)
	snap := m.Snapshot()
	det, err := FromSnapshot(snap)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 200; q++ {
		x := make([]float64, 4)
		for j := range x {
			x[j] = rng.Float64() * 500
		}
		if a, b := m.Eval(x), det.Eval(x); a != b {
			t.Fatalf("query %d: attached Eval %v != detached Eval %v", q, a, b)
		}
	}
}

// TestSnapshotPreservesSupportVectors checks ids, ranking and metadata
// survive the round trip.
func TestSnapshotPreservesSupportVectors(t *testing.T) {
	_, m := trainedModel(t, 300, 4, 11)
	snap := m.Snapshot()
	if snap.SVCount() == 0 {
		t.Fatal("no support vectors in snapshot")
	}
	det, err := FromSnapshot(snap)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	a, b := m.SupportVectors(), det.SupportVectors()
	if len(a) != len(b) {
		t.Fatalf("SV count %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SV %d: %d != %d", i, a[i], b[i])
		}
	}
	at, bt := m.TopSupportVectors(5), det.TopSupportVectors(5)
	for i := range at {
		if at[i] != bt[i] {
			t.Fatalf("TopSV %d: %d != %d", i, at[i], bt[i])
		}
	}
	if det.Nu != m.Nu || det.Sigma != m.Sigma || det.R2 != m.R2 {
		t.Fatalf("metadata drifted: nu %v/%v sigma %v/%v r2 %v/%v",
			det.Nu, m.Nu, det.Sigma, m.Sigma, det.R2, m.R2)
	}
	if det.Iterations != m.Iterations || det.Converged != m.Converged {
		t.Fatalf("solve outcome drifted")
	}
	if det.BoundedSupportVectors() != nil {
		t.Fatal("detached model must not report bounded SVs (no caps retained)")
	}
	// Σα over support vectors alone stays 1 up to the zero threshold times
	// the dropped count.
	if s := det.SumAlpha(); math.Abs(s-1) > 1e-6 {
		t.Fatalf("detached Σα = %v, want ~1", s)
	}
}

// TestSnapshotOfDetachedModel: snapshotting a detached model reproduces the
// same snapshot (stability under repeated save/load cycles).
func TestSnapshotOfDetachedModel(t *testing.T) {
	_, m := trainedModel(t, 200, 3, 5)
	s1 := m.Snapshot()
	det, err := FromSnapshot(s1)
	if err != nil {
		t.Fatal(err)
	}
	s2 := det.Snapshot()
	if len(s1.IDs) != len(s2.IDs) {
		t.Fatalf("SV count changed: %d -> %d", len(s1.IDs), len(s2.IDs))
	}
	for i := range s1.IDs {
		if s1.IDs[i] != s2.IDs[i] || s1.Alpha[i] != s2.Alpha[i] || s1.Score[i] != s2.Score[i] {
			t.Fatalf("entry %d drifted", i)
		}
	}
	for i := range s1.Coords {
		if s1.Coords[i] != s2.Coords[i] {
			t.Fatalf("coord %d drifted", i)
		}
	}
	if s1.Sigma != s2.Sigma || s1.R2 != s2.R2 || s1.AlphaDot != s2.AlphaDot || s1.Nu != s2.Nu {
		t.Fatal("scalar terms drifted")
	}
	// A retained snapshot lives as long as its Result: no spare capacity.
	for i, s := range []*Snapshot{s1, s2} {
		if cap(s.IDs) != len(s.IDs) || cap(s.Alpha) != len(s.Alpha) || cap(s.Score) != len(s.Score) || cap(s.Coords) != len(s.Coords) {
			t.Errorf("snapshot %d: caps ids %d/%d alpha %d/%d score %d/%d coords %d/%d, want cap == len", i,
				cap(s.IDs), len(s.IDs), cap(s.Alpha), len(s.Alpha), cap(s.Score), len(s.Score), cap(s.Coords), len(s.Coords))
		}
	}
}

// TestFromSnapshotRejectsInvalid exercises the validation taxonomy.
func TestFromSnapshotRejectsInvalid(t *testing.T) {
	_, m := trainedModel(t, 100, 2, 9)
	good := m.Snapshot()
	cases := []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"zero dim", func(s *Snapshot) { s.Dim = 0 }},
		{"no svs", func(s *Snapshot) { s.IDs = nil }},
		{"alpha mismatch", func(s *Snapshot) { s.Alpha = s.Alpha[:1] }},
		{"score mismatch", func(s *Snapshot) { s.Score = append(s.Score, 0) }},
		{"coords mismatch", func(s *Snapshot) { s.Coords = s.Coords[:len(s.Coords)-1] }},
		{"zero sigma", func(s *Snapshot) { s.Sigma = 0 }},
		{"negative sigma", func(s *Snapshot) { s.Sigma = -1 }},
		{"inf sigma", func(s *Snapshot) { s.Sigma = math.Inf(1) }},
	}
	for _, tc := range cases {
		cp := *good
		cp.IDs = append([]int32(nil), good.IDs...)
		cp.Alpha = append([]float64(nil), good.Alpha...)
		cp.Score = append([]float64(nil), good.Score...)
		cp.Coords = append([]float64(nil), good.Coords...)
		tc.mutate(&cp)
		if _, err := FromSnapshot(&cp); err == nil {
			t.Errorf("%s: FromSnapshot accepted invalid snapshot", tc.name)
		}
	}
	if _, err := FromSnapshot(good); err != nil {
		t.Fatalf("control: valid snapshot rejected: %v", err)
	}
}

// TestTrainRecordsNu: Train records the ν it used, including an adaptive ν*
// the caller resolved.
func TestTrainRecordsNu(t *testing.T) {
	ds := testBlobs(t, 128, 3, 3)
	ids := vec.Iota(ds.Len())
	m, err := Train(ds, ids, Config{Nu: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Nu != 0.2 {
		t.Fatalf("explicit nu not recorded: %v", m.Nu)
	}
	want := NuStar(3, 8, ds.Len())
	m, err = Train(ds, ids, Config{Nu: want})
	if err != nil {
		t.Fatal(err)
	}
	if m.Nu != want {
		t.Fatalf("adaptive nu* not recorded: got %v want %v", m.Nu, want)
	}
}
