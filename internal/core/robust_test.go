package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"dbsvec/internal/cluster"
	"dbsvec/internal/eval"
	"dbsvec/internal/fault"
	"dbsvec/internal/leakcheck"
	"dbsvec/internal/vec"
)

// countingCtx cancels itself after its Err method has been polled a fixed
// number of times; every consumer in this repository polls Err (never Done),
// which the nil Done channel proves.
type countingCtx struct {
	context.Context
	after int64
	calls atomic.Int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func (c *countingCtx) Done() <-chan struct{} { return nil }

// checkLabels asserts the labeling invariants that every result — complete
// or budget-partial — must satisfy: each label is Noise or a dense cluster
// id in [0, Clusters), and every id in that range is used.
func checkLabels(t *testing.T, res *cluster.Result) {
	t.Helper()
	used := make([]bool, res.Clusters)
	for i, l := range res.Labels {
		switch {
		case l == cluster.Noise:
		case l >= 0 && int(l) < res.Clusters:
			used[l] = true
		default:
			t.Fatalf("label[%d] = %d outside [0, %d) ∪ {Noise}", i, l, res.Clusters)
		}
	}
	for id, u := range used {
		if !u {
			t.Errorf("cluster id %d unused", id)
		}
	}
}

func threeBlobs(seed int64) *vec.Dataset {
	return gaussBlobs([][]float64{{0, 0}, {50, 50}, {0, 50}}, 200, 1.5, 30, 80, seed)
}

func TestBudgetSVDDRounds(t *testing.T) {
	ds := threeBlobs(1)
	opts := Options{Eps: 3, MinPts: 10, Budget: Budget{MaxSVDDRounds: 1}}
	res, st, err := Run(ds, opts)
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetExceededError", err)
	}
	if be.Limit != "svdd-rounds" || be.SVDDRounds < 1 {
		t.Errorf("unexpected budget error: %+v", be)
	}
	if res == nil {
		t.Fatal("want partial result alongside budget error")
	}
	checkLabels(t, res)
	if st.SVDDTrainings < 1 {
		t.Errorf("SVDDTrainings = %d, want >= 1", st.SVDDTrainings)
	}
	// Unbudgeted, the same run needs several trainings.
	_, full, err := Run(ds, Options{Eps: 3, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if full.SVDDTrainings <= 1 {
		t.Skip("dataset too easy to exercise the round budget")
	}
	if st.SVDDTrainings >= full.SVDDTrainings {
		t.Errorf("budgeted run trained %d times, full run %d — budget had no effect",
			st.SVDDTrainings, full.SVDDTrainings)
	}
}

func TestBudgetRangeQueries(t *testing.T) {
	ds := threeBlobs(2)
	res, st, err := Run(ds, Options{Eps: 3, MinPts: 10, Budget: Budget{MaxRangeQueries: 10}})
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetExceededError", err)
	}
	if be.Limit != "range-queries" {
		t.Errorf("Limit = %q, want range-queries", be.Limit)
	}
	if res == nil {
		t.Fatal("want partial result alongside budget error")
	}
	checkLabels(t, res)
	if got := st.RangeQueries + st.RangeCounts; got < 10 {
		t.Errorf("queries at trip = %d, want >= 10", got)
	}
}

func TestBudgetDurationExpiredUpFront(t *testing.T) {
	leakcheck.Check(t)
	ds := threeBlobs(3)
	res, _, err := Run(ds, Options{Eps: 3, MinPts: 10, Budget: Budget{MaxDuration: time.Nanosecond}})
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetExceededError", err)
	}
	if be.Limit != "duration" {
		t.Errorf("Limit = %q, want duration", be.Limit)
	}
	if res == nil {
		t.Fatal("want partial (all-noise) result")
	}
	checkLabels(t, res)
	for i, l := range res.Labels {
		if l != cluster.Noise {
			t.Fatalf("label[%d] = %d, want Noise everywhere on an instantly expired budget", i, l)
		}
	}
}

func TestInjectedDeadlineFire(t *testing.T) {
	restore := fault.Activate(fault.NewInjector(1).Arm(fault.DeadlineFire, fault.Nth(3)))
	defer restore()
	ds := threeBlobs(4)
	res, _, err := Run(ds, Options{Eps: 3, MinPts: 10})
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetExceededError from injected deadline", err)
	}
	if be.Limit != "duration" {
		t.Errorf("Limit = %q, want duration", be.Limit)
	}
	if res == nil {
		t.Fatal("want partial result")
	}
	checkLabels(t, res)
}

func TestExternalCancelPreCancelled(t *testing.T) {
	leakcheck.Check(t)
	ds := threeBlobs(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := Run(ds, Options{Eps: 3, MinPts: 10, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("external cancellation must discard partial work")
	}
}

func TestExternalCancelMidRun(t *testing.T) {
	leakcheck.Check(t)
	ds := threeBlobs(6)
	// Let a handful of checkpoints pass, then cancel: the run is cut off
	// somewhere inside the seed sweep or an expansion round.
	ctx := &countingCtx{Context: context.Background(), after: 8}
	res, _, err := Run(ds, Options{Eps: 3, MinPts: 10, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("external cancellation must discard partial work")
	}
}

func TestExternalCancelBeatsBudget(t *testing.T) {
	// When both an external cancellation and a budget limit are in play,
	// the cancellation wins: hard error, no partial result.
	ds := threeBlobs(7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := Run(ds, Options{
		Eps: 3, MinPts: 10, Context: ctx,
		Budget: Budget{MaxSVDDRounds: 1, MaxDuration: time.Nanosecond},
	})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res=%v err=%v, want nil result and context.Canceled", res, err)
	}
}

func TestDegradedFallbackKeepsARI(t *testing.T) {
	ds := threeBlobs(8)
	opts := Options{Eps: 3, MinPts: 10}
	clean, cleanStats, err := Run(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cleanStats.Degraded != 0 {
		t.Fatalf("clean run reported %d degraded sub-clusters", cleanStats.Degraded)
	}

	restore := fault.Activate(fault.NewInjector(1).Arm(fault.SolverNonConverge, fault.Always()))
	defer restore()
	degraded, degStats, err := Run(ds, opts)
	if err != nil {
		t.Fatalf("degraded run must still succeed, got %v", err)
	}
	if degStats.Degraded == 0 {
		t.Fatal("injection fired on every training yet Degraded = 0")
	}
	checkLabels(t, degraded)
	ari, err := eval.AdjustedRandIndex(clean, degraded)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Errorf("ARI(clean, degraded) = %v, want >= 0.95", ari)
	}
}

func TestWorkerPanicContained(t *testing.T) {
	leakcheck.Check(t)
	restore := fault.Activate(fault.NewInjector(1).Arm(fault.WorkerPanic, fault.Nth(1)))
	defer restore()
	ds := threeBlobs(9)
	res, _, err := Run(ds, Options{Eps: 3, MinPts: 10, Workers: 4})
	var wp *fault.WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("err = %v, want *fault.WorkerPanicError", err)
	}
	if len(wp.Stack) == 0 {
		t.Error("worker panic lost its stack trace")
	}
	if res != nil {
		t.Error("want nil result after a contained panic")
	}
}

func TestIndexQueryErrorPropagates(t *testing.T) {
	restore := fault.Activate(fault.NewInjector(1).Arm(fault.IndexQueryError, fault.Nth(1)))
	defer restore()
	ds := threeBlobs(10)
	res, _, err := Run(ds, Options{Eps: 3, MinPts: 10})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected query error", err)
	}
	if res != nil {
		t.Error("want nil result on a query error")
	}
}

func TestInvalidParamsTaxonomy(t *testing.T) {
	ds := gaussBlobs([][]float64{{0, 0}}, 10, 1, 0, 0, 2)
	cases := []Options{
		{Eps: 0, MinPts: 5},
		{Eps: -1, MinPts: 5},
		{Eps: 1, MinPts: 0},
		{Eps: 1, MinPts: 5, Nu: 2},
		{Eps: 1, MinPts: 5, Workers: -1},
		{Eps: 1, MinPts: 5, MaxSVDDTarget: -1},
		{Eps: 1, MinPts: 5, LearnThreshold: -2},
		{Eps: 1, MinPts: 5, Budget: Budget{MaxDuration: -time.Second}},
		{Eps: 1, MinPts: 5, Budget: Budget{MaxSVDDRounds: -1}},
		{Eps: 1, MinPts: 5, Budget: Budget{MaxRangeQueries: -1}},
		{Eps: math.NaN(), MinPts: 5},
		{Eps: 1, MinPts: 5, Nu: math.NaN()},
	}
	for i, o := range cases {
		_, _, err := Run(ds, o)
		if !errors.Is(err, ErrInvalidParams) {
			t.Errorf("case %d: err = %v, want ErrInvalidParams for %+v", i, err, o)
		}
	}
}
