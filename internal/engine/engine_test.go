package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// Cancellation arriving mid-loop stops it between chunks on both the inline
// and the parallel path, and is reported; a cancellation during the last
// chunk is reported too, although every chunk ran.
func TestCancellationInsideBatch(t *testing.T) {
	const n, stride = 1000, 10
	for _, workers := range []int{1, 4} {
		for _, after := range []int64{5, n / stride} {
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int64
			err := For(ctx, workers, n, stride, func(lo, hi int) {
				if ran.Add(1) == after {
					cancel()
				}
			})
			cancel()
			if err != context.Canceled {
				t.Fatalf("workers=%d after=%d: err = %v, want context.Canceled", workers, after, err)
			}
			got := ran.Load()
			switch {
			case workers == 1 && got != after:
				t.Errorf("inline: %d chunks ran, want exactly %d", got, after)
			case got > after+int64(workers)-1:
				t.Errorf("workers=%d: %d chunks ran after cancelling at %d", workers, got, after)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := For(ctx, 4, 0, 1, func(lo, hi int) {}); err != context.Canceled {
		t.Fatalf("empty loop on a cancelled ctx: err = %v", err)
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(3); got != 3 {
		t.Errorf("ResolveWorkers(3) = %d", got)
	}
	if got := ResolveWorkers(0); got < 1 {
		t.Errorf("ResolveWorkers(0) = %d, want >= 1", got)
	}
}

func TestPhaseTimes(t *testing.T) {
	var p PhaseTimes
	sw := StartPhase()
	time.Sleep(time.Millisecond)
	sw.Stop(&p.Init)
	sw = StartPhase()
	sw.Stop(&p.Expand)
	if p.Init <= 0 {
		t.Errorf("Init = %v, want > 0", p.Init)
	}
	if p.Total() != p.Init+p.Expand+p.Verify {
		t.Errorf("Total mismatch")
	}
}
