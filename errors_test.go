package dbsvec

import (
	"errors"
	"testing"

	"dbsvec/internal/fault"
)

// TestErrorTaxonomyThroughCluster: a worker panic injected into the
// clustering fan-out surfaces from the public Cluster as a typed
// *WorkerPanicError (errors.As), with the worker's stack attached — the
// public face of the engine's panic containment.
func TestErrorTaxonomyThroughCluster(t *testing.T) {
	ds := blobDataset(t, 800, 2, 2, 33)
	restore := fault.Activate(fault.NewInjector(1).Arm(fault.WorkerPanic, fault.Nth(1)))
	defer restore()
	res, err := Cluster(ds, Options{Eps: 3, MinPts: 8, Workers: 4, Seed: 3})
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("Cluster under injected worker panic: err = %v, want *WorkerPanicError", err)
	}
	if len(wp.Stack) == 0 {
		t.Error("worker panic lost its originating stack")
	}
	if res != nil {
		t.Error("worker panic must not return a result")
	}
}

// TestErrorTaxonomyThroughSharded: the same taxonomy flows through the
// sharded runner's per-shard wrapping — budget trips keep errors.As
// *BudgetExceededError (with a usable partial clustering), worker panics
// keep errors.As *WorkerPanicError.
func TestErrorTaxonomyThroughSharded(t *testing.T) {
	ds := blobDataset(t, 2000, 2, 3, 35)

	res, err := RunSharded(ds, Options{
		Eps: 3, MinPts: 8, Seed: 3, Shards: 2,
		Budget: Budget{MaxRangeQueries: 5},
	})
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("sharded budget trip: err = %v, want *BudgetExceededError", err)
	}
	if be.RangeQueries < 5 {
		t.Errorf("budget snapshot %+v, want >= 5 range queries", be)
	}
	if res == nil {
		t.Fatal("sharded budget trip must still return the partial clustering")
	}
	for i, l := range res.Labels {
		if l != Noise && (l < 0 || int(l) >= res.Clusters) {
			t.Fatalf("partial label[%d] = %d outside [0, %d) ∪ {Noise}", i, l, res.Clusters)
		}
	}

	restore := fault.Activate(fault.NewInjector(1).Arm(fault.WorkerPanic, fault.Nth(1)))
	defer restore()
	_, err = RunSharded(ds, Options{Eps: 3, MinPts: 8, Seed: 3, Shards: 2, Workers: 4})
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("sharded worker panic: err = %v, want *WorkerPanicError", err)
	}
}

// TestIndexKindErrorsAreInvalidParams: an unknown index kind, and a grid
// without a positive eps, are parameter errors on every entry point that
// takes an IndexKind.
func TestIndexKindErrorsAreInvalidParams(t *testing.T) {
	ds := blobDataset(t, 200, 2, 2, 37)
	for _, kind := range []IndexKind{99, -1} {
		calls := map[string]func() error{
			"Cluster": func() error { _, err := Cluster(ds, Options{Eps: 3, MinPts: 8, Index: kind}); return err },
			"RunSharded": func() error {
				_, err := RunSharded(ds, Options{Eps: 3, MinPts: 8, Shards: 2, Index: kind})
				return err
			},
			"DBSCAN":         func() error { _, err := DBSCAN(ds, 3, 8, kind); return err },
			"DBSCANParallel": func() error { _, err := DBSCANParallel(ds, 3, 8, kind, 2); return err },
		}
		for name, call := range calls {
			if err := call(); !errors.Is(err, ErrInvalidParams) {
				t.Errorf("%s with Index %d: err = %v, want ErrInvalidParams", name, kind, err)
			}
		}
	}
	if _, err := Cluster(ds, Options{Eps: 0, MinPts: 8, Index: IndexGrid}); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("Cluster with IndexGrid and Eps 0: err = %v, want ErrInvalidParams", err)
	}
	if _, err := DBSCAN(ds, 0, 8, IndexGrid); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("DBSCAN with IndexGrid and eps 0: err = %v, want ErrInvalidParams", err)
	}
}
