package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"dbsvec/internal/fault"
)

// For runs fn over [0, n) in chunks of stride consecutive indexes — chunk c
// is [c·stride, min((c+1)·stride, n)) — and is the one flat parallel loop of
// the repository: the query batches of the index fan-out, the kernel-matrix
// fills, the index builds' per-point and per-cell passes, Model.Assign and
// the shard fan-out all run on it. The chunk boundaries depend only on
// (n, stride), so callers whose chunks write disjoint output produce
// bit-identical results for every worker count and schedule.
//
// workers <= 0 selects GOMAXPROCS, and the count is clamped to the number
// of chunks. One worker runs every chunk inline on the caller, with no
// goroutine, and a panic unwinds raw. Otherwise the workers claim chunks in
// order from one atomic counter, so a skewed chunk cost balances itself.
// A worker checks the stop flag and ctx (nil never cancels) before each
// claim, never after one, so a claimed chunk always runs: when chunks panic,
// every chunk below the lowest panicking one ran too, and that lowest panic
// is re-panicked on the caller as a typed *WorkerPanicError whatever the
// schedule, so an outer recover boundary sees one deterministic error
// instead of a crashed process. Each spawned worker fires
// fault.WorkerPanic.
//
// For returns ctx's error when ctx is cancelled before it returns, even if
// every chunk ran; callers then discard the partial output. With a nil ctx
// it always returns nil, so callers without a context ignore the result.
func For(ctx context.Context, workers, n, stride int, fn func(lo, hi int)) error {
	if stride < 1 {
		stride = 1
	}
	chunks := 0
	if n > 0 {
		chunks = (n-1)/stride + 1
	}
	if workers = min(ResolveWorkers(workers), chunks); workers <= 1 {
		for lo := 0; lo < n; lo += stride {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			fn(lo, min(lo+stride, n))
		}
		return ctxErr(ctx)
	}
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	// Each worker records its own panic with the chunk it was running; a
	// panic before the first claim (an injected one) ranks after every chunk.
	panics := make([]*fault.WorkerPanicError, workers)
	at := make([]int, workers)
	for w := range panics {
		wg.Add(1)
		go func() {
			defer wg.Done()
			at[w] = chunks
			defer func() {
				if v := recover(); v != nil {
					panics[w] = fault.AsWorkerPanic(v)
					stop.Store(true)
				}
			}()
			fault.PanicNow(fault.WorkerPanic)
			for !stop.Load() && ctxErr(ctx) == nil {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				at[w] = c
				lo := c * stride
				fn(lo, min(lo+stride, n))
			}
		}()
	}
	wg.Wait()
	var first *fault.WorkerPanicError
	low := chunks + 1
	for w, pe := range panics {
		if pe != nil && at[w] < low {
			first, low = pe, at[w]
		}
	}
	if first != nil {
		panic(first)
	}
	return ctxErr(ctx)
}

// ctxErr is ctx.Err() with nil standing for a context that never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
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
