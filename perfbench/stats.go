package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// supports reports whether a sample of n values puts at least ten values
// beyond its q-quantile, the least a reported percentile must rest on.
func supports(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// heapSampler polls the live-heap metric (heap reachable at the last GC) in
// the background. The metric only moves at GC ends, so a 10 ms poll sees
// every value a phase of a second or more produces.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	at      []time.Time
	samples []uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler collects garbage first, so the peak covers only what the
// measured phase keeps alive, and then polls until Stop.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			h.at = append(h.at, time.Now())
			h.samples = append(h.samples, readLiveHeap())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in MB (2^20 bytes).
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return h.PeakWithin(time.Time{}, time.Now())
}

// PeakWithin returns the peak live heap in MB over the samples taken in
// [from, to]; call it after Stop.
func (h *heapSampler) PeakWithin(from, to time.Time) float64 {
	var peak uint64
	for i, t := range h.at {
		if !t.Before(from) && !t.After(to) {
			peak = max(peak, h.samples[i])
		}
	}
	return float64(peak) / (1 << 20)
}

// gcWindow measures garbage collections between its start and Stop.
type gcWindow struct{ cycles, pauseNs uint64 }

func startGC() gcWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcWindow{cycles: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

// Stop returns the GC cycles run and the total stop-the-world pause in ms.
func (g gcWindow) Stop() (cycles float64, pauseMs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(uint64(ms.NumGC) - g.cycles), float64(ms.PauseTotalNs-g.pauseNs) / 1e6
}

// span is one timed call at a layer boundary, as seen from the benchmark.
// Spans of one operation share Op; Parent is the enclosing span's ID (0 for
// a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// disabled: its methods do nothing, so untraced runs pay one nil check.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// NewID reserves a span ID, so children recorded before their parent ends
// can name it.
func (l *spanLog) NewID() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// Add records a span; id 0 takes a fresh ID.
func (l *spanLog) Add(id, parent, op int64, name string, start time.Time, dur time.Duration) {
	if l == nil {
		return
	}
	if id == 0 {
		id = l.NewID()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartUs: start.Sub(l.t0).Microseconds(), DurUs: dur.Microseconds()})
}
