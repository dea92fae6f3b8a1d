package experiments

import (
	"testing"
	"time"

	"dbsvec/internal/cluster"
	"dbsvec/internal/data"
	"dbsvec/internal/vec"
)

// The sweep budget must latch: once an algorithm exceeds it, later (larger)
// inputs emit no row for it instead of running.
func TestRunSweepBudgetLatches(t *testing.T) {
	calls := 0
	slow := func(_ Config, ds *vec.Dataset, _ float64, _ int) (*cluster.Result, error) {
		calls++
		// Burn measurable wall time so budget 1ms is exceeded.
		deadline := time.Now().Add(2 * time.Millisecond)
		for time.Now().Before(deadline) {
		}
		return &cluster.Result{Labels: make([]int32, ds.Len())}, nil
	}
	fast := func(_ Config, ds *vec.Dataset, _ float64, _ int) (*cluster.Result, error) {
		return &cluster.Result{Labels: make([]int32, ds.Len())}, nil
	}
	points := []map[string]any{{"point": "a"}, {"point": "b"}, {"point": "c"}}
	at := func(i int) (*vec.Dataset, float64) { return data.Uniform(10, 2, 1, int64(i)), 1 }
	emitted := map[string]int{}
	cfg := Config{Budget: time.Millisecond}
	err := runSweep(cfg, "sweep", func(r Row) { emitted[r.Params["algo"].(string)]++ },
		[]namedAlgo{{"slow", slow}, {"fast", fast}}, points, at)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || emitted["slow"] != 1 {
		t.Errorf("slow algorithm ran %d times and emitted %d rows, want 1 and 1 (budget latch)", calls, emitted["slow"])
	}
	if emitted["fast"] != 3 {
		t.Errorf("fast algorithm emitted %d rows, want 3", emitted["fast"])
	}
}
