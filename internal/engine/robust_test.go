package engine

import (
	"context"
	"errors"
	"testing"

	"dbsvec/internal/fault"
	"dbsvec/internal/index/indextest"
	"dbsvec/internal/leakcheck"
	"dbsvec/internal/vec"
)

func TestForRangesPanicTyped(t *testing.T) {
	leakcheck.Check(t)
	defer func() {
		v := recover()
		pe, ok := v.(*fault.WorkerPanicError)
		if !ok {
			t.Fatalf("recovered %v (%T), want *fault.WorkerPanicError", v, v)
		}
		if pe.Value != "boom-2" {
			t.Errorf("Value = %v, want the lowest-range panic boom-2", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Error("panic lost its stack")
		}
	}()
	// Two ranges panic; the one covering the lower indices must win
	// deterministically regardless of scheduling.
	ForRanges(4, 1000, nil, func(lo, hi int) {
		if lo >= 500 {
			panic("boom-high")
		}
		if lo >= 250 {
			panic("boom-2")
		}
	})
	t.Fatal("ForRanges did not re-panic")
}

func TestForRangesSerialPanicPassesThrough(t *testing.T) {
	defer func() {
		if v := recover(); v != "serial" {
			t.Fatalf("recovered %v, want the raw serial panic", v)
		}
	}()
	ForRanges(1, 10, nil, func(lo, hi int) { panic("serial") })
}

func TestTasksPanicSurfacesAtWait(t *testing.T) {
	leakcheck.Check(t)
	g := NewTasks(4)
	for i := 0; i < 8; i++ {
		i := i
		fn := func() {
			if i == 0 {
				panic("task-zero")
			}
		}
		if !g.Try(fn) {
			fn()
		}
	}
	defer func() {
		v := recover()
		pe, ok := v.(*fault.WorkerPanicError)
		if !ok {
			t.Fatalf("recovered %v (%T), want *fault.WorkerPanicError", v, v)
		}
		if pe.Value != "task-zero" {
			t.Errorf("Value = %v, want task-zero", pe.Value)
		}
		// A second Wait must not replay the consumed panic.
		g.Wait()
	}()
	g.Wait()
	t.Fatal("Wait did not re-panic")
}

func TestBatchEntryInjectedError(t *testing.T) {
	rows := [][]float64{{0, 0}, {1, 0}, {0, 1}, {5, 5}}
	ds, _ := vec.FromRows(rows)
	eng := New(ds, indextest.Linear(ds), 2, 2)

	restore := fault.Activate(fault.NewInjector(1).Arm(fault.IndexQueryError, fault.Always()))
	defer restore()
	if _, err := eng.Neighborhoods(context.Background(), []int32{0, 1}); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Neighborhoods err = %v, want injected", err)
	}
	if _, err := eng.Counts(context.Background(), []int32{0, 1}, 2); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Counts err = %v, want injected", err)
	}
	if _, err := eng.AllNeighborhoodsOwned(context.Background()); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("AllNeighborhoodsOwned err = %v, want injected", err)
	}
	if _, err := eng.AllCountsOwned(context.Background(), 2); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("AllCountsOwned err = %v, want injected", err)
	}
}

func TestBatchWorkerPanicBecomesError(t *testing.T) {
	leakcheck.Check(t)
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = []float64{float64(i), 0}
	}
	ds, _ := vec.FromRows(rows)
	eng := New(ds, indextest.Linear(ds), 1.5, 4)

	restore := fault.Activate(fault.NewInjector(1).Arm(fault.WorkerPanic, fault.Nth(1)))
	defer restore()
	ids := make([]int32, 64)
	for i := range ids {
		ids[i] = int32(i)
	}
	_, err := eng.Neighborhoods(context.Background(), ids)
	var wp *fault.WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("err = %v, want *fault.WorkerPanicError", err)
	}
}
