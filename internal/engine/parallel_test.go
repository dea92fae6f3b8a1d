package engine

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every index of [0, n) must be visited exactly once, for any worker count
// and stride, and every chunk must be non-empty and at most stride long.
func TestForRangesCoversExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 100} {
		for _, workers := range []int{0, 1, 2, 3, 8, 200} {
			for _, stride := range []int{0, 1, 3, 8, 1000} {
				var mu sync.Mutex
				visits := make([]int, n)
				err := For(context.Background(), workers, n, stride, func(lo, hi int) {
					if lo >= hi || hi-lo > max(stride, 1) {
						t.Errorf("n=%d workers=%d stride=%d: bad chunk [%d,%d)", n, workers, stride, lo, hi)
					}
					mu.Lock()
					for i := lo; i < hi; i++ {
						visits[i]++
					}
					mu.Unlock()
				})
				if err != nil {
					t.Fatalf("n=%d workers=%d stride=%d: %v", n, workers, stride, err)
				}
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("n=%d workers=%d stride=%d: index %d visited %d times", n, workers, stride, i, v)
					}
				}
			}
		}
	}
}

// The chunk boundaries must depend only on (n, stride), never on the worker
// count or the schedule: every run collects the same chunk set.
func TestForRangesDeterministicPartition(t *testing.T) {
	collect := func(workers int) map[[2]int]bool {
		var mu sync.Mutex
		got := map[[2]int]bool{}
		For(nil, workers, 517, 16, func(lo, hi int) {
			mu.Lock()
			got[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return got
	}
	first := collect(1)
	if len(first) != 33 || !first[[2]int{512, 517}] {
		t.Fatalf("serial chunks %v, want 33 chunks ending in [512,517)", first)
	}
	for _, workers := range []int{2, 4, 8, 8, 8} {
		if got := collect(workers); !reflect.DeepEqual(got, first) {
			t.Fatalf("workers=%d: chunks changed: %v vs %v", workers, got, first)
		}
	}
}

// Disjoint chunk writes must be race-free and ordering-independent: filling
// a slice in parallel matches the serial fill exactly.
func TestForRangesDisjointWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 4096
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.Float64()
	}
	fill := func(workers, stride int) []float64 {
		out := make([]float64, n)
		For(nil, workers, n, stride, func(lo, hi int) {
			copy(out[lo:hi], want[lo:hi])
		})
		return out
	}
	for _, workers := range []int{1, 2, 8, 16} {
		for _, stride := range []int{1, 7, 512} {
			if got := fill(workers, stride); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d stride=%d: parallel fill diverged", workers, stride)
			}
		}
	}
}

// A worker count above the chunk count is clamped: For spawns no more
// goroutines than there are chunks.
func TestForClampsWorkersToChunks(t *testing.T) {
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	For(nil, 64, 40, 10, func(lo, hi int) {
		for g, p := int64(runtime.NumGoroutine()), peak.Load(); g > p && !peak.CompareAndSwap(p, g); p = peak.Load() {
		}
	})
	if extra := peak.Load() - int64(base); extra > 4 {
		t.Fatalf("For ran %d extra goroutines for 4 chunks", extra)
	}
}

// Tasks must run every offered closure exactly once — whether spawned or
// declined — and Wait must not return before spawned work finishes.
func TestTasksRunsAllWork(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		g := NewTasks(workers)
		const jobs = 200
		var ran [jobs]int32
		var wg sync.WaitGroup
		for i := 0; i < jobs; i++ {
			i := i
			fn := func() { atomic.AddInt32(&ran[i], 1) }
			wg.Add(1)
			if !g.Try(func() { defer wg.Done(); fn() }) {
				fn()
				wg.Done()
			}
		}
		wg.Wait()
		g.Wait()
		for i, v := range ran {
			if v != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, v)
			}
		}
	}
}

// At most `workers` goroutines (caller included) may run concurrently; the
// serial nil spawner must never spawn at all.
func TestTasksBoundsConcurrency(t *testing.T) {
	if g := NewTasks(1); g != nil {
		t.Fatal("NewTasks(1) should be nil (serial)")
	}
	var nilTasks *Tasks
	if nilTasks.Try(func() { t.Error("nil Tasks must not spawn") }) {
		t.Fatal("nil Tasks reported a spawn")
	}
	nilTasks.Wait() // must not panic

	workers := 4
	g := NewTasks(workers)
	var cur, peak int32
	var body func(depth int)
	body = func(depth int) {
		// Count only the active section: inline recursion below happens after
		// the decrement, so cur tracks goroutines, not nesting depth.
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
		if depth < 3 {
			// Nested Try from spawned tasks must stay within the bound.
			var wg sync.WaitGroup
			wg.Add(1)
			if !g.Try(func() { defer wg.Done(); body(depth + 1) }) {
				body(depth + 1)
				wg.Done()
			}
			wg.Wait()
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		if !g.Try(func() { defer wg.Done(); body(0) }) {
			body(0)
			wg.Done()
		}
	}
	wg.Wait()
	g.Wait()
	// The caller plus workers-1 spawned goroutines.
	if peak > int32(workers) {
		t.Fatalf("observed %d concurrent tasks, bound is %d", peak, workers)
	}
}

func TestSVDDTimes(t *testing.T) {
	var acc SVDDTimes
	acc.Add(SVDDTimes{Fill: time.Millisecond, Solve: 2 * time.Millisecond, Finish: 3 * time.Millisecond})
	acc.Add(SVDDTimes{Fill: time.Millisecond})
	if acc.Fill != 2*time.Millisecond || acc.Solve != 2*time.Millisecond || acc.Finish != 3*time.Millisecond {
		t.Errorf("accumulation wrong: %+v", acc)
	}
	if acc.Total() != 7*time.Millisecond {
		t.Errorf("Total = %v, want 7ms", acc.Total())
	}
}
