package workload

import (
	"math"
	"testing"
	"time"
)

func TestLatencyRecorder(t *testing.T) {
	l := NewLatencyRecorder()
	if l.Mean() != 0 || l.Percentile(99) != 0 || l.Count() != 0 {
		t.Fatalf("empty recorder should report zeros")
	}
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	if l.Count() != 100 {
		t.Fatalf("count = %d", l.Count())
	}
	if got := l.Mean(); got < 50*time.Millisecond || got > 51*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}
	if got := l.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := l.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := l.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
}

func TestLatencyRecorderBounded(t *testing.T) {
	l := NewLatencyRecorder()
	// 10x the reservoir capacity of a uniform 1..n ms ramp: memory must stay
	// at the cap, the mean must remain exact, and the reservoir percentiles
	// must land within a few percent of the true ranks.
	n := reservoirCap * 10
	for i := 1; i <= n; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	if l.Count() != n {
		t.Fatalf("count = %d, want %d", l.Count(), n)
	}
	l.mu.Lock()
	kept := len(l.samples)
	l.mu.Unlock()
	if kept != reservoirCap {
		t.Fatalf("reservoir holds %d samples, want the cap %d", kept, reservoirCap)
	}
	wantMean := time.Duration(n+1) * time.Millisecond / 2
	if got := l.Mean(); got != wantMean {
		t.Fatalf("mean = %v, want the exact %v", got, wantMean)
	}
	for _, p := range []float64{50, 90, 99} {
		got := float64(l.Percentile(p) / time.Millisecond)
		want := p / 100 * float64(n)
		if math.Abs(got-want) > 0.03*float64(n) {
			t.Fatalf("p%v = %vms, want within 3%% of %vms", p, got, want)
		}
	}
}
