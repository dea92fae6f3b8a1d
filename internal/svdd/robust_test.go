package svdd

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dbsvec/internal/fault"
	"dbsvec/internal/leakcheck"
	"dbsvec/internal/vec"
)

// countingCtx cancels itself after its Err method has been polled a fixed
// number of times — a deterministic stand-in for "the deadline fires while
// the solver is mid-iteration". Done deliberately returns nil (never ready):
// every consumer in this repository polls Err, and the nil channel proves it.
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

func TestTrainNotConvergedReturnsBestIterate(t *testing.T) {
	ds, _ := blobWithOutliers(300, 11)
	m, err := Train(ds, allIDs(300), Config{Nu: 0.1, MaxIter: 3})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if m == nil {
		t.Fatal("want best-iterate model alongside ErrNotConverged")
	}
	if m.Converged {
		t.Error("Converged = true on a truncated solve")
	}
	if m.Iterations == 0 || m.Iterations > 3 {
		t.Errorf("Iterations = %d, want in (0, 3]", m.Iterations)
	}
	if m.Times.NotConverged != 1 {
		t.Errorf("Times counters = %+v, want NotConverged=1", m.Times)
	}
	// The truncated iterate must still be dual-feasible: box constraints
	// and Σα = 1.
	var sum float64
	for i, a := range m.Alpha {
		if a < 0 || a > m.Upper[i]+1e-12 {
			t.Fatalf("alpha[%d] = %v outside box [0, %v]", i, a, m.Upper[i])
		}
		sum += a
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Errorf("sum alpha = %v, want 1", sum)
	}
}

func TestTrainConvergedSetsFlag(t *testing.T) {
	ds, _ := blobWithOutliers(200, 12)
	m, err := Train(ds, allIDs(200), Config{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Converged {
		t.Error("Converged = false on an uncapped solve")
	}
	if m.Times.NotConverged != 0 {
		t.Errorf("Times counters = %+v, want NotConverged=0", m.Times)
	}
}

func TestTrainDegenerateSigma(t *testing.T) {
	dup, _ := vec.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}})
	m, err := Train(dup, allIDs(3), Config{Nu: 0.5})
	if !errors.Is(err, ErrDegenerateSigma) {
		t.Fatalf("err = %v, want ErrDegenerateSigma", err)
	}
	if m != nil {
		t.Error("want nil model for a degenerate kernel width")
	}
	// A single point is a defined special case, not a degenerate one.
	if m, err := Train(dup, []int32{0}, Config{Nu: 0.5}); err != nil || !m.Converged {
		t.Errorf("single-point training: model=%v err=%v, want trivial converged model", m, err)
	}
}

func TestTrainCancelMidSolve(t *testing.T) {
	leakcheck.Check(t)
	ds, _ := blobWithOutliers(400, 13)
	// after=1 lets the entry check pass and cancels on the solver's first
	// in-loop poll — a solve truncated strictly mid-iteration.
	ctx := &countingCtx{Context: context.Background(), after: 1}
	m, err := Train(ds, allIDs(400), Config{Nu: 0.1, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Error("want nil model on cancellation")
	}
}

func TestTrainCancelledUpFront(t *testing.T) {
	leakcheck.Check(t)
	ds, _ := blobWithOutliers(100, 14)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if m, err := Train(ds, allIDs(100), Config{Nu: 0.1, Context: ctx, Workers: 4}); !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("model=%v err=%v, want nil model and context.Canceled", m, err)
	}
}

func TestTrainInjectedNonConvergence(t *testing.T) {
	restore := fault.Activate(fault.NewInjector(1).Arm(fault.SolverNonConverge, fault.Always()))
	defer restore()
	ds, _ := blobWithOutliers(300, 15)
	m, err := Train(ds, allIDs(300), Config{Nu: 0.1})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged under injection", err)
	}
	if m == nil || m.Converged {
		t.Fatalf("want non-converged best-iterate model, got %v", m)
	}
}

func TestTrainWorkerPanicContained(t *testing.T) {
	leakcheck.Check(t)
	restore := fault.Activate(fault.NewInjector(1).Arm(fault.WorkerPanic, fault.Nth(1)))
	defer restore()
	ds, _ := blobWithOutliers(300, 16)
	// Above weightsExactCap, adaptive weights (Times set) compute the pivot
	// rows as one batch through engine.For, whose spawned workers
	// carry the injection site.
	m, err := Train(ds, allIDs(300), Config{Nu: 0.1, Times: make([]int, 300), Workers: 4})
	var wp *fault.WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("err = %v, want *fault.WorkerPanicError", err)
	}
	if !errors.Is(wp.Value.(error), fault.ErrInjected) {
		t.Errorf("panic value = %v, want injected error", wp.Value)
	}
	if m != nil {
		t.Error("want nil model after a contained panic")
	}
}
