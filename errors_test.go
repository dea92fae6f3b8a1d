package dbsvec

import (
	"errors"
	"math"
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
	if _, err := Cluster(ds, Options{Eps: 0, MinPts: 8, Index: IndexLinear}); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("Cluster with IndexLinear and Eps 0: err = %v, want ErrInvalidParams", err)
	}
}

// TestBaselineErrorsAreInvalidParams: every baseline entry point rejects a
// malformed parameter (negative or NaN eps, MinPts 0, k 0) with an error wrapping ErrInvalidParams, never with a
// bare error or, for NaN eps, a silent all-noise result.
func TestBaselineErrorsAreInvalidParams(t *testing.T) {
	ds := blobDataset(t, 200, 2, 2, 39)
	nan := math.NaN()
	calls := []struct {
		name string
		call func() error
	}{
		{"DBSCAN eps -1", func() error { _, err := DBSCAN(ds, -1, 8, IndexLinear); return err }},
		{"DBSCAN eps NaN", func() error { _, err := DBSCAN(ds, nan, 2, IndexLinear); return err }},
		{"DBSCAN MinPts 0", func() error { _, err := DBSCAN(ds, 3, 0, IndexKDTree); return err }},
		{"DBSCANParallel eps -1", func() error { _, err := DBSCANParallel(ds, -1, 8, IndexLinear, 2); return err }},
		{"DBSCANParallel eps NaN", func() error { _, err := DBSCANParallel(ds, nan, 8, IndexLinear, 2); return err }},
		{"DBSCANParallel MinPts 0", func() error { _, err := DBSCANParallel(ds, 3, 0, IndexLinear, 2); return err }},
		{"NQDBSCAN eps -1", func() error { _, err := NQDBSCAN(ds, -1, 8); return err }},
		{"NQDBSCAN eps NaN", func() error { _, err := NQDBSCAN(ds, nan, 8); return err }},
		{"NQDBSCAN MinPts 0", func() error { _, err := NQDBSCAN(ds, 3, 0); return err }},
		{"RhoApproximate eps -1", func() error { _, err := RhoApproximate(ds, RhoOptions{Eps: -1, MinPts: 8}); return err }},
		{"RhoApproximate eps NaN", func() error { _, err := RhoApproximate(ds, RhoOptions{Eps: nan, MinPts: 8}); return err }},
		{"RhoApproximate MinPts 0", func() error { _, err := RhoApproximate(ds, RhoOptions{Eps: 3}); return err }},
		{"DBSCANLSH eps -1", func() error { _, err := DBSCANLSH(ds, LSHOptions{Eps: -1, MinPts: 8}); return err }},
		{"DBSCANLSH MinPts 0", func() error { _, err := DBSCANLSH(ds, LSHOptions{Eps: 3}); return err }},
		{"KMeans k 0", func() error { _, err := KMeans(ds, 0, 1); return err }},
		{"KMeans k > n", func() error { _, err := KMeans(ds, ds.Len()+1, 1); return err }},
	}
	for _, c := range calls {
		if err := c.call(); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%s: err = %v, want ErrInvalidParams", c.name, err)
		}
	}
}
