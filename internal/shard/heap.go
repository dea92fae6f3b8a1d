package shard

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// liveHeapMetric is the runtime metric the sampler polls: heap bytes that
// were live (reachable) as of the most recent garbage collection. Unlike
// MemStats.HeapAlloc it excludes garbage awaiting collection, so it tracks
// the footprint the out-of-core memory bound is actually about rather than
// the GC-slack-inflated allocation watermark (~2x live at GOGC=100).
const liveHeapMetric = "/gc/heap/live:bytes"

// heapSampler polls the live-heap metric in the background so Stats can
// report the peak live heap of a sharded run. The metric only updates at GC
// points and sampling misses sub-interval spikes; the benchmarks use it for
// order-of-magnitude footprint comparisons, not byte accounting.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

// readLiveHeap returns the current value of the live-heap metric (0 if the
// runtime does not export it).
func readLiveHeap(sample []metrics.Sample) uint64 {
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// heapSampleInterval is the sampler's polling interval.
const heapSampleInterval = 10 * time.Millisecond

// startHeapSampler begins polling.
func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		ticker := time.NewTicker(heapSampleInterval)
		defer ticker.Stop()
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		for {
			if v := readLiveHeap(sample); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-ticker.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the observed peak live heap in bytes. A
// short run may finish without the runtime ever garbage-collecting, leaving
// the metric at zero or stale; Stop forces one collection and folds the
// resulting reading into the peak so the returned value is never zero for a
// run that allocated.
func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	runtime.GC()
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	if v := readLiveHeap(sample); v > s.peak {
		s.peak = v
	}
	return s.peak
}

// MeasurePeakHeap runs fn while sampling the live heap and returns the
// observed peak alongside fn's error — the same measurement a sharded run
// reports in Stats.PeakHeapBytes, usable for single-shot comparison
// baselines.
func MeasurePeakHeap(fn func() error) (uint64, error) {
	s := startHeapSampler()
	err := fn()
	return s.Stop(), err
}
