package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecordAllocBudget pins the record fast path at zero heap allocations,
// the same hard gate the wirecodec keeps on its encode path. If counters,
// gauges, histograms, or the tracer start allocating per record, the
// observability plane is no longer free to leave on and this test fails.
func TestRecordAllocBudget(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "shard", "0")
	g := r.Gauge("test_depth")
	h := r.Histogram("test_latency_seconds", nil)
	tr := NewTracer(r, 4)
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(42)
		g.Add(-1)
		h.Observe(0.0042)
		h.ObserveDuration(3 * time.Millisecond)
		tr.Record(tr.NewTrace(), StageOrder, 0, start, 250*time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("record fast path allocated %v allocs/op, want 0", allocs)
	}

	// The nil (disabled) plane must also be allocation-free: it is the
	// baseline of the overhead benchmark.
	var nr *Registry
	nc := nr.Counter("x")
	nh := nr.Histogram("y", nil)
	var ntr *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		nc.Inc()
		nh.Observe(1)
		ntr.Record(ntr.NewTrace(), StageReply, 0, start, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("no-op path allocated %v allocs/op, want 0", allocs)
	}
}

// TestTraceUnsampledAllocBudget is the distributed-tracing allocation gate:
// the unsampled span path — the one every request crosses when the head
// sampler at the client did not pick it — must be allocation-free, on a live
// tracer with a span ring attached, on a sampling miss, and on the nil
// (tracing disabled) tracer. The sampled path may allocate (it is rate-bound
// by the head sampler), but the common path must stay free to leave on.
func TestTraceUnsampledAllocBudget(t *testing.T) {
	r := NewRegistry()
	ring := NewSpanRing("alloc-test", 64)
	tr := NewTracerRing(r, 1<<30, ring) // effectively never head-samples
	start := time.Now()
	var unsampled TraceContext
	allocs := testing.AllocsPerRun(1000, func() {
		if tc := tr.NewTrace(); tc.Sampled() {
			t.Fatal("sampler hit at rate 1<<30")
		}
		tr.Record(unsampled, StageExecute, 0, start, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("unsampled trace path allocated %v allocs/op, want 0", allocs)
	}

	var ntr *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		if tc := ntr.NewTrace(); tc.Sampled() {
			t.Fatal("nil tracer sampled")
		}
		ntr.Record(unsampled, StageExecute, 0, start, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer trace path allocated %v allocs/op, want 0", allocs)
	}

	// The sampled path must land its span in the ring without growing it
	// (preallocated storage), and ring recording itself stays bounded.
	tr2 := NewTracerRing(r, 1, ring)
	tc := tr2.NewTrace()
	if !tc.Sampled() {
		t.Fatal("rate-1 tracer did not sample")
	}
	tr2.Record(tc, StageExecute, 1, start, time.Millisecond)
	spans := ring.Snapshot()
	if len(spans) == 0 {
		t.Fatal("sampled span not recorded in the ring")
	}
	got := spans[len(spans)-1]
	if got.TraceID != tc.TraceID || got.Stage != "execute" || got.Process != "alloc-test" || got.Shard != 1 {
		t.Fatalf("recorded span = %+v, want trace %d stage execute process alloc-test shard 1", got, tc.TraceID)
	}
}

// TestConcurrentHammer exercises registration and recording from many
// goroutines at once; run under -race it proves the hot path needs no locks.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hammer_ops_total")
			h := r.Histogram("hammer_seconds", nil)
			g := r.Gauge("hammer_depth")
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000)
				g.Set(int64(i))
				if i%100 == 0 {
					// Concurrent scrapes must not disturb recording.
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hammer_ops_total").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("hammer_seconds", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

// TestFirstRegistrationRace: sub-hosts sharing one registry register the same
// series at the same moment. All of them must end up holding the same metric,
// or increments through the losers' pointers are lost to every scrape.
func TestFirstRegistrationRace(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	// Every round races on a series nobody registered yet.
	for round := 0; round < 200; round++ {
		name := fmt.Sprintf("race_%d_total", round)
		gaugeName := fmt.Sprintf("race_%d_depth", round)
		start := make(chan struct{})
		counters := make([]*Counter, workers)
		gauges := make([]*Gauge, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				counters[w] = r.Counter(name, "shard", "0")
				counters[w].Inc()
				gauges[w] = r.Gauge(gaugeName, "shard", "0")
				gauges[w].Add(1)
			}(w)
		}
		close(start)
		wg.Wait()
		for w := 1; w < workers; w++ {
			if counters[w] != counters[0] || gauges[w] != gauges[0] {
				t.Fatalf("round %d: registrants hold different metrics for one series", round)
			}
		}
		if got := r.Counter(name, "shard", "0").Value(); got != workers {
			t.Fatalf("round %d: counter = %d, want %d", round, got, workers)
		}
		if got := r.Gauge(gaugeName, "shard", "0").Value(); got != workers {
			t.Fatalf("round %d: gauge = %d, want %d", round, got, workers)
		}
	}
}

// TestPrometheusExpositionGolden locks down the text format byte-for-byte.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("plane_requests_total", "shard", "0").Add(7)
	r.Counter("plane_requests_total", "shard", "1").Add(3)
	r.Gauge("plane_depth").Set(-2)
	r.GaugeFunc("plane_conns", func() float64 { return 4 })
	h := r.Histogram("plane_latency_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE plane_conns gauge
plane_conns 4
# TYPE plane_depth gauge
plane_depth -2
# TYPE plane_latency_seconds histogram
plane_latency_seconds_bucket{le="0.001"} 1
plane_latency_seconds_bucket{le="0.01"} 2
plane_latency_seconds_bucket{le="+Inf"} 3
plane_latency_seconds_sum 5.0055
plane_latency_seconds_count 3
# TYPE plane_requests_total counter
plane_requests_total{shard="0"} 7
plane_requests_total{shard="1"} 3
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestRegistryIdempotent: registering the same series twice returns the same
// metric, so several sub-hosts sharing a registry aggregate into one series.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "k", "v")
	b := r.Counter("same_total", "k", "v")
	if a != b {
		t.Fatal("same series registered twice returned distinct counters")
	}
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("value = %d, want 2", a.Value())
	}
	h1 := r.Histogram("same_seconds", []float64{1, 2})
	h2 := r.Histogram("same_seconds", nil) // bounds fixed by first registration
	if h1 != h2 {
		t.Fatal("same histogram series returned distinct histograms")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total").Add(9)
	r.Gauge("snap_gauge").Set(5)
	r.Histogram("snap_seconds", []float64{0.5}).Observe(0.1)
	snap := r.Snapshot()
	if snap.Counters["snap_total"] != 9 {
		t.Fatalf("counter snapshot = %d", snap.Counters["snap_total"])
	}
	if snap.Gauges["snap_gauge"] != 5 {
		t.Fatalf("gauge snapshot = %v", snap.Gauges["snap_gauge"])
	}
	hs := snap.Histograms["snap_seconds"]
	if hs.Count != 1 || hs.Sum != 0.1 || len(hs.Buckets) != 1 || hs.Buckets[0].Count != 1 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-serializable: %v", err)
	}
}

func TestTracerSampling(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, 10)
	sampled := 0
	for i := 0; i < 1000; i++ {
		if tc := tr.NewTrace(); tc.Sampled() {
			sampled++
			tr.Record(tc, StageMerge, 0, time.Now(), time.Millisecond)
		}
	}
	if sampled != 100 {
		t.Fatalf("sampled %d of 1000 at rate 10, want 100", sampled)
	}
	if got := r.Histogram("trace_stage_seconds", nil, "stage", "merge").Count(); got != 100 {
		t.Fatalf("merge stage count = %d, want 100", got)
	}
	if tr := NewTracer(nil, 10); tr != nil {
		t.Fatal("tracer over nil registry should be nil")
	}
	if tr := NewTracer(r, 0); tr != nil {
		t.Fatal("tracer with rate 0 should be nil")
	}
}

// TestServeHTTP spins up the front door on an ephemeral port and scrapes
// both endpoints.
func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Add(11)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "served_total 11") {
		t.Fatalf("/metrics missing series:\n%s", body)
	}

	resp, err = http.Get("http://" + srv.Addr() + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["served_total"] != 11 {
		t.Fatalf("/metrics.json counter = %d, want 11", snap.Counters["served_total"])
	}
}
