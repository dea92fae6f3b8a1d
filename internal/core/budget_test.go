package core

import (
	"testing"

	"dbsvec/internal/svdd"
	"dbsvec/internal/vec"
)

func budgetRunner(opts Options, ds *vec.Dataset) *runner {
	return &runner{ds: ds, opts: opts}
}

func TestSVBudget(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0, 0}})
	// NuMin: exactly the single-vector minimum budget.
	r := budgetRunner(Options{NuMin: true, MinPts: 10}, ds)
	if got := r.svBudget(100); got != 1 {
		t.Errorf("NuMin budget = %d, want 1", got)
	}
	// Explicit nu: ceil(1.5*nu*n) with the floor of 6.
	r = budgetRunner(Options{Nu: 0.5, MinPts: 10}, ds)
	if got := r.svBudget(100); got != 75 {
		t.Errorf("nu=0.5 budget = %d, want 75", got)
	}
	r = budgetRunner(Options{Nu: 0.01, MinPts: 10}, ds)
	if got := r.svBudget(100); got != 6 {
		t.Errorf("tiny-nu budget = %d, want floor 6", got)
	}
}

func TestEffectiveNu(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0, 0}, {1, 1}})
	r := budgetRunner(Options{NuMin: true}, ds)
	if got := r.effectiveNu(200); got != 1.0/200 {
		t.Errorf("NuMin effective nu = %v", got)
	}
	r = budgetRunner(Options{Nu: 0.3}, ds)
	if got := r.effectiveNu(200); got != 0.3 {
		t.Errorf("explicit effective nu = %v", got)
	}
	r = budgetRunner(Options{MinPts: 20}, ds)
	want := svdd.NuStar(2, 20, 200)
	if got := r.effectiveNu(200); got != want {
		t.Errorf("adaptive effective nu = %v, want %v", got, want)
	}
}

// DBSVEC_min must actually run at roughly one queried support vector per
// training round (the paper's minimum-nu variant).
func TestNuMinQueriesFewSVs(t *testing.T) {
	ds := gaussBlobs([][]float64{{0, 0}, {40, 40}}, 300, 2, 0, 0, 5)
	_, st, err := Run(ds, Options{Eps: 3, MinPts: 8, NuMin: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.SVDDTrainings == 0 {
		t.Fatal("no trainings recorded")
	}
	perRound := float64(st.SupportVectors) / float64(st.SVDDTrainings)
	// Stall-escalation rounds query the full SV set, so the average sits
	// above 1; it must still stay far below the default ν* budgets.
	if perRound > 8 {
		t.Errorf("DBSVEC_min queried %.1f SVs per round, want close to 1", perRound)
	}
}

func TestSampleTargetsCap(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{0, 0}})
	r := budgetRunner(Options{MaxSVDDTarget: 8}, ds)
	targets := make([]target, 100)
	for i := range targets {
		targets[i] = target{id: int32(i), times: 3 * i}
	}
	ids, times := r.sampleTargets(targets)
	if len(ids) != 8 || len(times) != 8 {
		t.Fatalf("sampled %d ids and %d counts, want 8", len(ids), len(times))
	}
	seen := map[int32]bool{}
	for i, id := range ids {
		if seen[id] {
			t.Fatal("duplicate id in sample")
		}
		seen[id] = true
		if id < 0 || id >= 100 {
			t.Fatalf("id %d out of range", id)
		}
		if times[i] != 3*int(id) {
			t.Fatalf("id %d sampled with count %d, want its own %d", id, times[i], 3*id)
		}
	}
	// Small target sets pass through unchanged.
	ids, times = r.sampleTargets(targets[:5])
	if len(ids) != 5 || len(times) != 5 {
		t.Errorf("small set sampled to %d ids, %d counts", len(ids), len(times))
	}
}
