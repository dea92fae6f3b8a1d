package svdd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dbsvec/internal/vec"
)

// Property: for random datasets, ν values and participation counts, Train always
// produces a feasible dual solution (Σα = 1, 0 ≤ α_i ≤ u_i) and a
// non-negative radius.
func TestQuickTrainFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(150)
		d := 1 + rng.Intn(6)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64() * 10
			}
		}
		ds, _ := vec.FromRows(rows)
		ids := allIDs(n)
		cfg := Config{Nu: 0.01 + rng.Float64()*0.98}
		if rng.Intn(2) == 1 {
			times := make([]int, n)
			for i := range times {
				times[i] = rng.Intn(5)
			}
			cfg.Times = times
		}
		m, err := Train(ds, ids, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if s := m.SumAlpha(); math.Abs(s-1) > 1e-6 {
			t.Logf("seed %d: sum alpha %v", seed, s)
			return false
		}
		for i, a := range m.Alpha {
			if a < -1e-9 || a > m.Upper[i]+1e-9 {
				t.Logf("seed %d: alpha[%d]=%v cap=%v", seed, i, a, m.Upper[i])
				return false
			}
		}
		if m.R2 < -1e-9 {
			t.Logf("seed %d: negative R2 %v", seed, m.R2)
			return false
		}
		if len(m.SupportVectors()) == 0 {
			t.Logf("seed %d: no support vectors", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Eval at each training point minus slack consistency — training
// points strictly inside the sphere (α = 0) must have non-positive Eval up
// to solver tolerance.
func TestQuickInteriorPointsInside(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(120)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		}
		ds, _ := vec.FromRows(rows)
		m, err := Train(ds, allIDs(n), Config{Nu: 0.2})
		if err != nil {
			return false
		}
		for i, a := range m.Alpha {
			if a > svThreshold {
				continue // support vectors may sit on/outside the sphere
			}
			if m.Eval(ds.Point(i)) > 1e-2 {
				t.Logf("seed %d: interior point %d outside sphere (eval %v)", seed, i, m.Eval(ds.Point(i)))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
