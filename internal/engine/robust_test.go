package engine

import (
	"errors"
	"testing"

	"dbsvec/internal/fault"
	"dbsvec/internal/leakcheck"
)

func TestForRangesPanicTyped(t *testing.T) {
	leakcheck.Check(t)
	for _, workers := range []int{2, 4, 16} {
		func() {
			defer func() {
				v := recover()
				pe, ok := v.(*fault.WorkerPanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %v (%T), want *fault.WorkerPanicError", workers, v, v)
				}
				if pe.Value != "boom-low" {
					t.Errorf("workers=%d: Value = %v, want the lowest-chunk panic boom-low", workers, pe.Value)
				}
				if len(pe.Stack) == 0 {
					t.Error("panic lost its stack")
				}
			}()
			// Two chunks panic; the lower one must win for every schedule,
			// because a claimed chunk always runs and chunks are claimed in
			// order.
			For(nil, workers, 1000, 10, func(lo, hi int) {
				switch lo {
				case 250:
					panic("boom-low")
				case 500:
					panic("boom-high")
				}
			})
			t.Fatalf("workers=%d: For did not re-panic", workers)
		}()
	}
}

func TestForRangesSerialPanicPassesThrough(t *testing.T) {
	defer func() {
		if v := recover(); v != "serial" {
			t.Fatalf("recovered %v, want the raw serial panic", v)
		}
	}()
	For(nil, 1, 10, 3, func(lo, hi int) { panic("serial") })
}

// A spawned worker fires fault.WorkerPanic before its first claim; the
// injected panic comes back typed. The inline path spawns nothing and
// fires nothing.
func TestForInjectedWorkerPanic(t *testing.T) {
	leakcheck.Check(t)
	restore := fault.Activate(fault.NewInjector(1).Arm(fault.WorkerPanic, fault.Always()))
	defer restore()
	if err := For(nil, 1, 10, 1, func(lo, hi int) {}); err != nil {
		t.Fatalf("inline For: %v", err)
	}
	defer func() {
		pe, ok := recover().(*fault.WorkerPanicError)
		if !ok || !errors.Is(pe.Value.(error), fault.ErrInjected) {
			t.Fatalf("recovered %v, want the injected worker panic", pe)
		}
	}()
	For(nil, 4, 100, 1, func(lo, hi int) {})
	t.Fatal("For did not re-panic the injected worker panic")
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
