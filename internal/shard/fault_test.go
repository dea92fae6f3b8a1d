package shard

import (
	"errors"
	"fmt"
	"testing"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/fault"
)

// TestShardedDegradationExact pins the acceptance requirement that a
// shard-level SVDD degradation must not corrupt the merge: with the solver
// forced to non-converge (every shard falls back to exact range expansion),
// the merged labels still match the clean single-shot run exactly — the
// degraded path is DBSCAN-exact, so the halo agreement argument is
// unaffected.
func TestShardedDegradationExact(t *testing.T) {
	ds := strips(t, 6, 250, 2, 9)
	want := singleShot(t, ds, 1) // clean baseline, no injection active

	for _, m := range []struct {
		name string
		mode fault.Mode
	}{
		{"always", fault.Always()},
		{"third", fault.Nth(3)},
	} {
		t.Run(m.name, func(t *testing.T) {
			restore := fault.Activate(fault.NewInjector(7).Arm(fault.SolverNonConverge, m.mode))
			defer restore()
			opts := Options{
				Core:   core.Options{Eps: boxEps, MinPts: boxMinPts},
				Shards: 4,
			}
			res, _, st, err := Run(NewMemSource(ds), opts)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, want, res, "degraded sharded run")
			degraded := 0
			for _, ss := range st.Shards {
				degraded += ss.Core.Degraded
			}
			if m.name == "always" && degraded == 0 {
				t.Fatal("injection armed but no shard degraded; the test exercised nothing")
			}
		})
	}
}

// TestShardedFaultContainment sweeps the other injection points: a sharded
// run never crashes — it ends in a valid clustering, a valid partial with a
// BudgetExceededError, or a typed error.
func TestShardedFaultContainment(t *testing.T) {
	ds := strips(t, 4, 150, 2, 10)
	for _, p := range fault.Points() {
		for _, m := range []struct {
			name string
			mode fault.Mode
		}{
			{"first", fault.Nth(1)},
			{"prob25", fault.Prob(0.25)},
		} {
			t.Run(fmt.Sprintf("%s/%s", p, m.name), func(t *testing.T) {
				restore := fault.Activate(fault.NewInjector(11).Arm(p, m.mode))
				defer restore()
				opts := Options{
					Core:        core.Options{Eps: boxEps, MinPts: boxMinPts, Workers: 2},
					Shards:      4,
					Concurrency: 2,
				}
				res, _, _, err := Run(NewMemSource(ds), opts)
				switch {
				case err == nil:
					checkValid(t, res)
				default:
					var be *core.BudgetExceededError
					var wp *fault.WorkerPanicError
					switch {
					case errors.As(err, &be):
						if res == nil {
							t.Fatal("budget error must come with a partial result")
						}
						checkValid(t, res)
					case errors.As(err, &wp), errors.Is(err, fault.ErrInjected):
						if res != nil {
							t.Error("hard failure must not return a result")
						}
					default:
						t.Fatalf("untyped error escaped: %v", err)
					}
				}
			})
		}
	}
}

func checkValid(tb testing.TB, res *cluster.Result) {
	tb.Helper()
	if res == nil {
		tb.Fatal("nil result with nil error")
	}
	for i, l := range res.Labels {
		if l != cluster.Noise && (l < 0 || int(l) >= res.Clusters) {
			tb.Fatalf("label[%d] = %d outside [0,%d)", i, l, res.Clusters)
		}
	}
}
