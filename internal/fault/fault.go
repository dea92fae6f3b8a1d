// Package fault is the leaf dependency of the robustness layer: it defines
// the error taxonomy shared across packages that cannot import each other
// without a cycle (the parameter-validation sentinel every algorithm wraps,
// and the typed worker-panic error of the engine and the index fan-out) and a
// deterministic, seed-driven fault injector that CI uses to exercise every
// recovery path of the pipeline reproducibly.
//
// Injection is opt-in and global: production code calls the cheap site
// helpers (Armed, Error, PanicNow), which are no-ops — a single atomic
// pointer load — until a test activates an Injector. Each injection point
// counts its occurrences atomically, so "fire on the k-th occurrence" is
// reproducible even when the occurrences happen on worker goroutines.
package fault

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// ErrInvalidParams is the root of the parameter-validation taxonomy: every
// rejection of malformed parameters, by DBSVEC and by every baseline, wraps
// it, so callers can classify any up-front failure with
// errors.Is(err, ErrInvalidParams) and read the violation from the message.
var ErrInvalidParams = errors.New("dbsvec: invalid parameters")

// WorkerPanicError is a panic recovered from a worker goroutine, converted
// to an error so batch APIs can propagate it and recover boundaries can
// return it instead of crashing the process. Value is the original panic
// value and Stack the panicking goroutine's stack trace.
type WorkerPanicError struct {
	Value any
	Stack []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("worker panic: %v", e.Value)
}

// AsWorkerPanic converts a recovered panic value into a *WorkerPanicError.
// A value that already is one (re-panicked across a spawn boundary, or
// recovered a second time at an outer boundary) passes through unchanged so
// the original worker's stack survives. nil returns nil.
func AsWorkerPanic(v any) *WorkerPanicError {
	if v == nil {
		return nil
	}
	if pe, ok := v.(*WorkerPanicError); ok {
		return pe
	}
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return &WorkerPanicError{Value: v, Stack: buf}
}

// RecoverTo is a defer helper for recover boundaries: it converts an
// in-flight panic into a *WorkerPanicError stored in *err. Use as
//
//	defer fault.RecoverTo(&err)
func RecoverTo(err *error) {
	if v := recover(); v != nil {
		*err = AsWorkerPanic(v)
	}
}

// Point identifies one injection site class.
type Point uint8

// The injection points exercised by the fault-injection CI job.
const (
	// SolverNonConverge forces svdd.Train to exhaust MaxIter after a single
	// iteration, exercising the ErrNotConverged degradation path.
	SolverNonConverge Point = iota
	// WorkerPanic panics inside a spawned worker goroutine (engine.ForRanges,
	// engine.Tasks, index batch fan-out), exercising panic containment.
	WorkerPanic
	// IndexQueryError makes an engine query batch return an injected error,
	// exercising error propagation out of expansion rounds.
	IndexQueryError
	// DeadlineFire makes a budget checkpoint behave as if the wall-clock
	// deadline had fired, exercising the partial-result path without waiting.
	DeadlineFire
	// HandlerSlow stalls a server request handler (context-aware) after
	// admission, exercising deadline propagation and queue pressure under
	// slow handling.
	HandlerSlow
	// AssignPanic panics inside a model-assign worker goroutine, exercising
	// the serving layer's panic-to-500 containment on top of the engine's
	// worker-panic recovery.
	AssignPanic
	// LoadSpike makes the admission gate shed the request as if capacity
	// were exhausted, exercising load shedding and the degradation trigger.
	LoadSpike

	numPoints
)

func (p Point) String() string {
	switch p {
	case SolverNonConverge:
		return "solver-non-converge"
	case WorkerPanic:
		return "worker-panic"
	case IndexQueryError:
		return "index-query-error"
	case DeadlineFire:
		return "deadline-fire"
	case HandlerSlow:
		return "slow-handler"
	case AssignPanic:
		return "panic-in-assign"
	case LoadSpike:
		return "load-spike"
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// Points lists every injection point, for sweep tests. The server-side
// points (HandlerSlow, AssignPanic, LoadSpike) have no sites inside the
// clustering pipeline, so pipeline sweeps that arm them simply run clean.
func Points() []Point {
	return []Point{SolverNonConverge, WorkerPanic, IndexQueryError, DeadlineFire, HandlerSlow, AssignPanic, LoadSpike}
}

// ServerPoints lists the injection points with sites in the serving layer,
// for the server fault sweep.
func ServerPoints() []Point {
	return []Point{HandlerSlow, AssignPanic, LoadSpike}
}

// ErrInjected is matched (via errors.Is) by every error the injector
// produces.
var ErrInjected = errors.New("fault: injected error")

// InjectedError is the typed error returned by Error sites and carried as
// the panic value by PanicNow sites.
type InjectedError struct {
	P Point
}

func (e *InjectedError) Error() string { return fmt.Sprintf("fault: injected %s", e.P) }

// Is reports ErrInjected as a match so callers can classify injected
// failures without knowing the point.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Mode decides on which occurrences of a point an armed injector fires.
type Mode struct {
	always bool
	nth    int64
	prob   float64
}

// Always fires on every occurrence.
func Always() Mode { return Mode{always: true} }

// Nth fires exactly once, on the n-th occurrence (1-based).
func Nth(n int64) Mode { return Mode{nth: n} }

// Prob fires independently on each occurrence with probability p, decided by
// a deterministic hash of (seed, point, occurrence) — the same seed replays
// the same firing pattern.
func Prob(p float64) Mode { return Mode{prob: p} }

type arm struct {
	enabled bool
	mode    Mode
	count   atomic.Int64
}

// Injector holds the armed points. Arm it before Activate; the occurrence
// counters are updated atomically so sites on worker goroutines are safe.
type Injector struct {
	seed int64
	arms [numPoints]arm
}

// NewInjector returns an injector whose Prob draws derive from seed.
func NewInjector(seed int64) *Injector { return &Injector{seed: seed} }

// Arm enables p with the given mode and returns the injector for chaining.
func (in *Injector) Arm(p Point, m Mode) *Injector {
	in.arms[p].enabled = true
	in.arms[p].mode = m
	return in
}

// Occurrences returns how many times point p was reached (fired or not)
// since activation.
func (in *Injector) Occurrences(p Point) int64 { return in.arms[p].count.Load() }

// fires counts one occurrence of p and reports whether it should fire.
func (in *Injector) fires(p Point) bool {
	a := &in.arms[p]
	if !a.enabled {
		return false
	}
	k := a.count.Add(1)
	switch {
	case a.mode.always:
		return true
	case a.mode.nth > 0:
		return k == a.mode.nth
	default:
		return splitmix(uint64(in.seed)^(uint64(p)<<56)^uint64(k)) < a.mode.prob
	}
}

// splitmix maps x to a uniform float64 in [0, 1).
func splitmix(x uint64) float64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// active is the globally installed injector; nil (the default) makes every
// site helper a no-op after one atomic load.
var active atomic.Pointer[Injector]

// Activate installs in as the process-wide injector and returns a restore
// function that reinstalls the previous one. Tests must call the restore
// (typically via defer or t.Cleanup) and must not run in parallel with other
// injector users.
func Activate(in *Injector) (restore func()) {
	prev := active.Swap(in)
	return func() { active.Swap(prev) }
}

// Armed counts one occurrence of p on the active injector and reports
// whether the site should alter its behaviour.
func Armed(p Point) bool {
	in := active.Load()
	return in != nil && in.fires(p)
}

// Error returns a typed *InjectedError when p fires, nil otherwise.
func Error(p Point) error {
	if Armed(p) {
		return &InjectedError{P: p}
	}
	return nil
}

// PanicNow panics with a typed *InjectedError when p fires.
func PanicNow(p Point) {
	if Armed(p) {
		panic(&InjectedError{P: p})
	}
}
