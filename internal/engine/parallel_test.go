package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every index of [0, n) must be visited exactly once, for any worker count
// and weight function.
func TestForRangesCoversExactlyOnce(t *testing.T) {
	weights := []func(i int) int64{
		nil,
		func(i int) int64 { return 1 },
		func(i int) int64 { return int64(i) }, // ascending
		func(i int) int64 { return int64(100 - i) }, // descending (triangular fill shape)
		func(i int) int64 { return int64(i % 3) },   // zeros interleaved
		func(i int) int64 { return 0 },              // all-zero: uniform fallback
	}
	for _, n := range []int{0, 1, 2, 7, 64, 100} {
		for _, workers := range []int{1, 2, 3, 8, 200} {
			for wi, weight := range weights {
				var mu sync.Mutex
				visits := make([]int, n)
				ForRanges(workers, n, weight, func(lo, hi int) {
					if lo >= hi {
						t.Errorf("n=%d workers=%d weight#%d: empty range [%d,%d)", n, workers, wi, lo, hi)
					}
					mu.Lock()
					for i := lo; i < hi; i++ {
						visits[i]++
					}
					mu.Unlock()
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("n=%d workers=%d weight#%d: index %d visited %d times", n, workers, wi, i, v)
					}
				}
			}
		}
	}
}

// The partition must depend only on (workers, n, weight), never on
// scheduling: repeated runs collect identical range sets.
func TestForRangesDeterministicPartition(t *testing.T) {
	weight := func(i int) int64 { return int64(512 - i) }
	collect := func() map[[2]int]bool {
		var mu sync.Mutex
		got := map[[2]int]bool{}
		ForRanges(8, 512, weight, func(lo, hi int) {
			mu.Lock()
			got[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return got
	}
	first := collect()
	for r := 0; r < 5; r++ {
		if got := collect(); !reflect.DeepEqual(got, first) {
			t.Fatalf("partition changed across runs: %v vs %v", got, first)
		}
	}
}

// Weighted splitting must roughly balance total weight across ranges: for
// the triangular fill workload no range may carry more than twice the ideal
// share (the greedy split can overshoot by at most one heavy row).
func TestForRangesWeightedBalance(t *testing.T) {
	n, workers := 1024, 8
	weight := func(i int) int64 { return int64(n - i - 1) }
	var total int64
	for i := 0; i < n; i++ {
		total += weight(i)
	}
	ideal := total / int64(workers)
	var mu sync.Mutex
	var ranges [][2]int
	ForRanges(workers, n, weight, func(lo, hi int) {
		mu.Lock()
		ranges = append(ranges, [2]int{lo, hi})
		mu.Unlock()
	})
	if len(ranges) < 2 {
		t.Fatalf("expected a multi-range partition, got %v", ranges)
	}
	for _, r := range ranges {
		var w int64
		for i := r[0]; i < r[1]; i++ {
			w += weight(i)
		}
		if w > 2*ideal {
			t.Errorf("range %v carries weight %d, more than 2x the ideal share %d", r, w, ideal)
		}
	}
}

// Disjoint range writes must be race-free and ordering-independent: filling
// a slice in parallel matches the serial fill exactly.
func TestForRangesDisjointWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 4096
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.Float64()
	}
	fill := func(workers int) []float64 {
		out := make([]float64, n)
		ForRanges(workers, n, nil, func(lo, hi int) {
			copy(out[lo:hi], want[lo:hi])
		})
		return out
	}
	for _, workers := range []int{1, 2, 8, 16} {
		if got := fill(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: parallel fill diverged", workers)
		}
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
