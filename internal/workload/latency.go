package workload

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// reservoirCap bounds the sample set a LatencyRecorder keeps. Up to the cap
// every sample is retained and the percentiles are exact; beyond it the
// recorder switches to reservoir sampling (Vitter's Algorithm R), keeping a
// uniform random subset so memory stays constant over unbounded runs while
// percentiles remain unbiased estimates (8192 points place even the p99.9
// within a fraction of a percentile rank).
const reservoirCap = 8192

// LatencyRecorder accumulates request latencies and reports summary
// statistics. Memory is bounded: the mean is exact over all samples (running
// count and sum), while percentiles are computed over a uniform reservoir of
// at most reservoirCap samples — exact until the cap is exceeded.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
	count   uint64
	sum     time.Duration
	rng     *rand.Rand
}

// NewLatencyRecorder returns an empty recorder. The reservoir's replacement
// choices use a fixed seed, so identical sample streams reproduce identical
// summaries.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{rng: rand.New(rand.NewSource(1))}
}

// Record adds one latency sample.
func (l *LatencyRecorder) Record(d time.Duration) {
	l.mu.Lock()
	l.count++
	l.sum += d
	if len(l.samples) < reservoirCap {
		l.samples = append(l.samples, d)
	} else if j := l.rng.Int63n(int64(l.count)); j < reservoirCap {
		// Algorithm R: the i-th sample replaces a uniformly chosen reservoir
		// slot with probability cap/i, keeping the reservoir a uniform subset.
		l.samples[j] = d
	}
	l.mu.Unlock()
}

// Count returns the number of samples recorded.
func (l *LatencyRecorder) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.count)
}

// Mean returns the mean latency over every recorded sample, or 0 when no
// samples were recorded.
func (l *LatencyRecorder) Mean() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return 0
	}
	return l.sum / time.Duration(l.count)
}

// Percentile returns the p-th percentile latency (p in [0,100]), computed
// over the retained reservoir (exact while at most reservoirCap samples have
// been recorded).
func (l *LatencyRecorder) Percentile(p float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
