package lsh

import (
	"math/rand"
	"slices"
	"testing"

	"dbsvec/internal/vec"
)

func TestValidation(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0, 0}})
	bad := []Params{
		{Tables: 0, Funcs: 2, Width: 1},
		{Tables: 2, Funcs: 0, Width: 1},
		{Tables: 2, Funcs: 2, Width: 0},
		{Tables: 2, Funcs: 2, Width: -5},
	}
	for i, p := range bad {
		if _, err := New(ds, p); err == nil {
			t.Errorf("case %d: want error for %+v", i, p)
		}
	}
}

func TestSelfCollision(t *testing.T) {
	// Every point must be among its own candidates.
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 200)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	ds, _ := vec.FromRows(rows)
	h, err := New(ds, Params{Tables: 4, Funcs: 2, Width: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		cand := h.Candidates(ds.Point(i), nil, seen)
		found := false
		for _, c := range cand {
			if int(c) == i {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("point %d not in its own candidate set", i)
		}
	}
}

func TestNearPointsCollideOften(t *testing.T) {
	// Points much closer than Width should collide in at least one of
	// several tables nearly always; far points rarely.
	rng := rand.New(rand.NewSource(2))
	var rows [][]float64
	for i := 0; i < 100; i++ {
		base := []float64{rng.Float64() * 1000, rng.Float64() * 1000}
		rows = append(rows, base, []float64{base[0] + 0.1, base[1] + 0.1})
	}
	ds, _ := vec.FromRows(rows)
	h, err := New(ds, Params{Tables: 8, Funcs: 2, Width: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, ds.Len())
	hits := 0
	for i := 0; i < ds.Len(); i += 2 {
		cand := h.Candidates(ds.Point(i), nil, seen)
		for _, c := range cand {
			if int(c) == i+1 {
				hits++
				break
			}
		}
	}
	if frac := float64(hits) / 100; frac < 0.9 {
		t.Errorf("near-pair collision rate %v < 0.9", frac)
	}
}

func TestCandidatesDeduplicated(t *testing.T) {
	// A point hashed into the same bucket across many tables must appear
	// exactly once in the candidate list.
	rows := [][]float64{{0, 0}, {0.01, 0.01}, {500, 500}}
	ds, _ := vec.FromRows(rows)
	h, err := New(ds, Params{Tables: 6, Funcs: 1, Width: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, ds.Len())
	cand := h.Candidates(ds.Point(0), nil, seen)
	counts := map[int32]int{}
	for _, c := range cand {
		counts[c]++
	}
	for id, n := range counts {
		if n != 1 {
			t.Errorf("candidate %d appears %d times", id, n)
		}
	}
	// seen must be reset.
	for i, s := range seen {
		if s {
			t.Errorf("seen[%d] not reset", i)
		}
	}
}

// TestDuplicatesShareBucket: identical points hash to the same bucket in
// every table, so each is a candidate of the other.
func TestDuplicatesShareBucket(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0, 0}, {0, 0}, {100, 100}})
	h, err := New(ds, Params{Tables: 2, Funcs: 2, Width: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cand := h.Candidates(ds.Point(0), nil, make([]bool, ds.Len()))
	if !slices.Contains(cand, 0) || !slices.Contains(cand, 1) {
		t.Errorf("Candidates(point 0) = %v; duplicates must share a bucket", cand)
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d", h.Len())
	}
}

// TestCandidatesAllocFree pins the satellite contract of the uint64 bucket
// keys: probing allocates nothing — no signature slice, no byte-serialized
// map key — once the candidate buffer has capacity.
func TestCandidatesAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rows := make([][]float64, 500)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
	}
	ds, _ := vec.FromRows(rows)
	h, err := New(ds, Params{Tables: 8, Funcs: 3, Width: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, ds.Len())
	buf := make([]int32, 0, ds.Len())
	q := ds.Point(42)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = h.Candidates(q, buf[:0], seen)
	}); allocs != 0 {
		t.Fatalf("Candidates allocates %v objects per probe, want 0", allocs)
	}
}

// TestBucketsAscendingWithin pins the counting-sort arena layout: ids within
// a bucket come out in ascending order, so downstream exact filters see a
// deterministic candidate order.
func TestBucketsAscendingWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := make([][]float64, 300)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	ds, _ := vec.FromRows(rows)
	h, err := New(ds, Params{Tables: 3, Funcs: 2, Width: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for t0 := range h.tables {
		tb := &h.tables[t0]
		total := 0
		for s := 0; s+1 < len(tb.offsets); s++ {
			seg := tb.flat[tb.offsets[s]:tb.offsets[s+1]]
			total += len(seg)
			for k := 1; k < len(seg); k++ {
				if seg[k-1] >= seg[k] {
					t.Fatalf("table %d bucket %d not ascending: %v", t0, s, seg)
				}
			}
		}
		if total != ds.Len() {
			t.Fatalf("table %d holds %d ids, want %d", t0, total, ds.Len())
		}
	}
}

func TestFloor64(t *testing.T) {
	cases := map[float64]int64{2.7: 2, -2.7: -3, 0: 0, -3: -3, 3: 3, -0.1: -1}
	for in, want := range cases {
		if got := floor64(in); got != want {
			t.Errorf("floor64(%v) = %d, want %d", in, got, want)
		}
	}
}
