package engine

import (
	"sync"
	"sync/atomic"

	"dbsvec/internal/fault"
)

// ForRanges partitions [0, n) into at most workers contiguous ranges of
// approximately equal total weight and runs fn once per non-empty range,
// concurrently when more than one range results. weight(i) is the relative
// cost of index i; nil selects uniform weights. The partition depends only
// on (workers, n, weight) — never on scheduling — so callers whose ranges
// write disjoint output produce bit-identical results for every worker
// count. This is the compute-side sibling of the query fan-out in
// internal/index: the SVDD kernel-matrix fill uses it to parallelize the
// dense triangular fill, whose per-row cost shrinks linearly with the row
// index (hence the weights).
//
// fn is called with half-open bounds [lo, hi). workers <= 1 or n <= 0 runs
// everything on the calling goroutine.
func ForRanges(workers, n int, weight func(i int) int64, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	bounds := splitWeighted(n, workers, weight)
	if len(bounds) == 2 {
		fn(bounds[0], bounds[1])
		return
	}
	// Every spawned range recovers its own panic; after the barrier the
	// panic of the lowest range index — a pure function of the partition,
	// not of scheduling — is re-panicked on the caller as a typed
	// *WorkerPanicError, so an outer recover boundary sees one deterministic
	// error instead of a crashed process.
	var wg sync.WaitGroup
	panics := make([]*fault.WorkerPanicError, len(bounds)-1)
	for r := 0; r+1 < len(bounds); r++ {
		r, lo, hi := r, bounds[r], bounds[r+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[r] = fault.AsWorkerPanic(v)
				}
			}()
			fault.PanicNow(fault.WorkerPanic)
			fn(lo, hi)
		}()
	}
	wg.Wait()
	for _, pe := range panics {
		if pe != nil {
			panic(pe)
		}
	}
}

// Tasks is a bounded spawner for recursive divide-and-conquer work such as
// the parallel index builds: at a fork the caller offers one branch to Try
// and descends into the other itself, so at most `workers` goroutines
// (including the caller) ever run. Because the work partition of those
// builds is fixed before any task runs — node layouts and id ranges are
// precomputed, never negotiated between goroutines — the result is
// bit-identical for every worker count; Tasks only decides *where* a
// subtree is built, never *what* it contains.
//
// A nil *Tasks is valid and never spawns, which is the serial path.
//
// Panics inside spawned tasks are recovered and re-panicked on the caller by
// Wait as one typed *WorkerPanicError (the earliest spawned panicking task
// wins), so a failing subtree build surfaces at the caller's recover
// boundary instead of killing the process.
type Tasks struct {
	sem chan struct{}
	wg  sync.WaitGroup

	spawnSeq atomic.Int64
	mu       sync.Mutex
	panicSeq int64
	panicErr *fault.WorkerPanicError
}

// NewTasks returns a spawner allowing up to workers concurrent goroutines
// including the caller; workers <= 1 returns nil (everything runs inline).
func NewTasks(workers int) *Tasks {
	if workers <= 1 {
		return nil
	}
	return &Tasks{sem: make(chan struct{}, workers-1)}
}

// Try runs fn on a new goroutine when a worker slot is free and reports
// whether it did; on false the caller must run fn inline. Spawned tasks may
// themselves call Try.
func (g *Tasks) Try(fn func()) bool {
	if g == nil {
		return false
	}
	select {
	case g.sem <- struct{}{}:
	default:
		return false
	}
	g.wg.Add(1)
	seq := g.spawnSeq.Add(1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				pe := fault.AsWorkerPanic(v)
				g.mu.Lock()
				if g.panicErr == nil || seq < g.panicSeq {
					g.panicErr, g.panicSeq = pe, seq
				}
				g.mu.Unlock()
			}
			<-g.sem
			g.wg.Done()
		}()
		fault.PanicNow(fault.WorkerPanic)
		fn()
	}()
	return true
}

// Wait blocks until every spawned task has finished, then re-panicks the
// recorded worker panic (if any) on the calling goroutine. Safe on nil.
func (g *Tasks) Wait() {
	if g == nil {
		return
	}
	g.wg.Wait()
	g.mu.Lock()
	pe := g.panicErr
	g.panicErr = nil
	g.mu.Unlock()
	if pe != nil {
		panic(pe)
	}
}

// splitWeighted returns parts+1 monotone boundaries over [0, n): range r is
// [bounds[r], bounds[r+1]). Ranges are chosen greedily so each carries
// roughly total/parts weight; empty trailing ranges are dropped, so every
// returned range is non-empty.
func splitWeighted(n, parts int, weight func(i int) int64) []int {
	var total int64
	if weight == nil {
		total = int64(n)
	} else {
		for i := 0; i < n; i++ {
			total += weight(i)
		}
	}
	if total <= 0 {
		// Degenerate weights: fall back to uniform splitting.
		total = int64(n)
		weight = nil
	}
	bounds := make([]int, 1, parts+1)
	bounds[0] = 0
	var acc int64
	next := 1
	for i := 0; i < n && next < parts; i++ {
		if weight == nil {
			acc++
		} else {
			acc += weight(i)
		}
		// Close the current range once it reaches its proportional share of
		// the remaining weight.
		if acc*int64(parts) >= total*int64(next) {
			bounds = append(bounds, i+1)
			next++
		}
	}
	if bounds[len(bounds)-1] < n {
		bounds = append(bounds, n)
	}
	return bounds
}
