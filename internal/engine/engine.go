// Package engine is the worker machinery and the run statistics shared by
// DBSVEC and the baseline algorithms. The paper's cost model (Section III-D)
// makes range queries the dominant term, and every phase of every algorithm
// in this repository issues them in batches with no ordering dependency
// inside a batch — a round's core-support-vector set, a noise list's pending
// core tests, parallel DBSCAN's phase-1 materialization. For is the one flat
// loop those batches (and every other flat fan-out) run on: workers claim
// fixed chunks in order and write only state their chunk owns, so callers
// that merge results sequentially produce bit-identical output for every
// worker count. Tasks is the fork-join spawner of the recursive index
// builds. The package imports nothing of the repository but internal/fault,
// so the index layer can run its batches on For.
package engine

import (
	"runtime"
	"time"

	"dbsvec/internal/fault"
)

// WorkerPanicError is a panic recovered from a worker goroutine spawned by
// For or Tasks, converted to a typed error. It is defined in internal/fault
// (the leaf package every recover boundary imports) and aliased here as the
// engine is the public face of the worker machinery.
type WorkerPanicError = fault.WorkerPanicError

// ResolveWorkers maps the Workers option convention (<= 0: all CPUs) to a
// concrete worker count.
func ResolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// PhaseTimes is the unified per-phase wall-clock breakdown reported by the
// algorithms running on the engine. The mapping is:
//
//	DBSVEC          Init = seed sweep, Expand = SV expansion rounds,
//	                Verify = noise verification;
//	parallel DBSCAN Init = phase-1 neighborhood materialization,
//	                Expand = core-graph union, Verify = border attachment.
//
// Wall-clock varies run to run; determinism comparisons must ignore it.
type PhaseTimes struct {
	Init   time.Duration
	Expand time.Duration
	Verify time.Duration
}

// Total is the summed phase wall-clock.
func (p PhaseTimes) Total() time.Duration { return p.Init + p.Expand + p.Verify }

// SVDDTimes is the per-stage wall-clock breakdown of SVDD training,
// accumulated across every training round of a run: Fill covers the kernel
// matrix construction (including the adaptive-weight pass), Solve the SMO
// optimization, Finish the radius/score extraction. Like PhaseTimes it is
// wall-clock and must be ignored by determinism comparisons. NotConverged
// is a deterministic counter riding along: the trainings that exhausted
// MaxIter before reaching the KKT tolerance (see svdd.ErrNotConverged); the
// number of trainings itself is core's Stats.SVDDTrainings.
type SVDDTimes struct {
	Fill   time.Duration
	Solve  time.Duration
	Finish time.Duration

	NotConverged int
}

// Total is the summed training wall-clock.
func (s SVDDTimes) Total() time.Duration { return s.Fill + s.Solve + s.Finish }

// Add accumulates another training's stage times and counters.
func (s *SVDDTimes) Add(o SVDDTimes) {
	s.Fill += o.Fill
	s.Solve += o.Solve
	s.Finish += o.Finish
	s.NotConverged += o.NotConverged
}

// Stopwatch accumulates phase wall-clock with the pattern
//
//	sw := engine.StartPhase()
//	... phase work ...
//	sw.Stop(&stats.Phases.Init)
type Stopwatch struct{ t0 time.Time }

// StartPhase starts a stopwatch.
func StartPhase() Stopwatch { return Stopwatch{t0: time.Now()} }

// Stop adds the elapsed time to *acc.
func (s Stopwatch) Stop(acc *time.Duration) { *acc += time.Since(s.t0) }
