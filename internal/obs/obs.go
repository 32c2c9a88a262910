// Package obs is the runtime observability plane of the replica stack: a
// low-overhead in-process metrics registry (atomic counters, gauges, and
// fixed-bucket histograms — no locks and no allocations on the record fast
// path), a Prometheus-text exposition writer, a JSON snapshot API for
// benchmark harnesses, and a sampled request-lifecycle tracer.
//
// Design rules, in order of importance:
//
//   - Recording must be free enough to leave on in production: Counter.Add,
//     Gauge.Set, and Histogram.Observe are single atomic operations (plus a
//     short bounds scan for histograms) with zero heap allocations, enforced
//     by TestRecordAllocBudget the same way the wirecodec pins its encode
//     path.
//   - Labels are baked into the series at registration time, never rendered
//     per record. A hot path that needs per-shard series registers one metric
//     per shard up front and indexes into them.
//   - Every metric type no-ops on a nil receiver, and a nil *Registry hands
//     out nil metrics, so instrumented code needs no "is observability on"
//     branches and the no-op configuration is the natural baseline for
//     overhead measurements.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil counter (no-op), so
// uninstrumented deployments pay one predictable branch.
//
//abstractbft:noalloc
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
//
//abstractbft:noalloc
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable signed value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value. Safe on a nil gauge.
//
//abstractbft:noalloc
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (negative to decrease). Safe on a nil gauge.
//
//abstractbft:noalloc
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: observation counts per upper bound
// plus a running sum and count. Bounds are set at registration and never
// change, so Observe is a short scan plus three atomic updates.
type Histogram struct {
	bounds []float64       // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// Observe records one value. Safe on a nil histogram.
//
//abstractbft:noalloc
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
//
//abstractbft:noalloc
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Default bucket bounds. Latency buckets cover 100µs to 10s; size buckets
// cover a TCP flush from a lone envelope to a saturated coalesce window;
// count buckets cover batch fills up to far beyond the default MaxBatch.
var (
	LatencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	SizeBuckets    = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
	CountBuckets   = []float64{1, 2, 4, 8, 16, 32, 64, 128}
)

// metric kinds.
const (
	kindCounter = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// series is one registered time series: a metric plus its baked-in labels.
type series struct {
	family string // metric name without labels
	labels string // rendered `k="v",k2="v2"` or ""
	kind   int
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64
	hist   *Histogram
}

func (s *series) key() string {
	if s.labels == "" {
		return s.family
	}
	return s.family + "{" + s.labels + "}"
}

// Registry holds the registered series of one process (or one replica, for
// in-process multi-replica harnesses). Registration takes a lock; recording
// on the returned metrics does not. A nil *Registry returns nil metrics from
// every constructor, turning the entire instrumentation into no-ops.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	kinds  map[string]int // family -> kind, to reject type confusion
	bounds map[string][]float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byKey:  make(map[string]*series),
		kinds:  make(map[string]int),
		bounds: make(map[string][]float64),
	}
}

// renderLabels validates and renders label pairs ("k", "v", ...) in the given
// order. Registration-time work only.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	return b.String()
}

// register returns the existing series for (family, labels) or installs a new
// one; registering the same family under two kinds is a programming error. A
// new counter or gauge series is born with its metric, before it becomes
// visible under r.mu: registrants racing on one series (sub-hosts sharing a
// registry) all get the same metric.
func (r *Registry) register(family string, labels []string, kind int) *series {
	s := &series{family: family, labels: renderLabels(labels), kind: kind}
	switch kind {
	case kindCounter:
		s.ctr = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.kinds[family]; ok && have != kind {
		panic(fmt.Sprintf("obs: metric %q registered as two different types", family))
	}
	r.kinds[family] = kind
	if have, ok := r.byKey[s.key()]; ok {
		return have
	}
	r.byKey[s.key()] = s
	return s
}

// Counter returns (registering on first use) the counter series with the
// given name and label pairs. Nil registry returns a nil, no-op counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, labels, kindCounter).ctr
}

// Gauge returns (registering on first use) the gauge series with the given
// name and label pairs. Nil registry returns a nil, no-op gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, labels, kindGauge).gauge
}

// GaugeFunc registers a gauge whose value is pulled from fn at scrape time
// (queue depths, map sizes): the hot path pays nothing, the scrape pays fn.
// Re-registering the same series replaces the function. No-op on nil.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	s := r.register(name, labels, kindGaugeFunc)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram returns (registering on first use) the histogram series with the
// given name, bucket bounds (nil selects LatencyBuckets), and label pairs.
// All series of one family share the first-registered bounds. Nil registry
// returns a nil, no-op histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.register(name, labels, kindHistogram)
	r.mu.Lock()
	if have, ok := r.bounds[name]; ok {
		bounds = have
	} else {
		if bounds == nil {
			bounds = LatencyBuckets
		}
		r.bounds[name] = bounds
	}
	if s.hist == nil {
		s.hist = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	h := s.hist
	r.mu.Unlock()
	return h
}

// snapshotSeries returns a stable-ordered copy of the registered series.
func (r *Registry) snapshotSeries() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.byKey))
	for _, s := range r.byKey {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].labels < out[j].labels
	})
	return out
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every registered series in the Prometheus text
// exposition format, grouped by family with # TYPE headers, families and
// series in lexical order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	lastFamily := ""
	for _, s := range r.snapshotSeries() {
		if s.family != lastFamily {
			typ := "counter"
			switch s.kind {
			case kindGauge, kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.family, typ)
			lastFamily = s.family
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", s.key(), s.ctr.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %d\n", s.key(), s.gauge.Value())
		case kindGaugeFunc:
			fmt.Fprintf(&b, "%s %s\n", s.key(), formatFloat(s.fn()))
		case kindHistogram:
			h := s.hist
			sep := ""
			if s.labels != "" {
				sep = s.labels + ","
			}
			var cum uint64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d\n", s.family, sep, formatFloat(bound), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %d\n", s.family, sep, cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.family, braced(s.labels), formatFloat(h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.family, braced(s.labels), h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// BucketCount is one cumulative histogram bucket of a snapshot.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is the JSON form of one histogram series.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time JSON-serializable view of a registry, keyed by
// full series id (name plus rendered labels). Benchmark harnesses embed it in
// their BENCH reports so external throughput rows carry the plane's internal
// counters, and the /metrics.json endpoint serves it to tooling.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered series. Nil registry returns the zero
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	for _, s := range r.snapshotSeries() {
		switch s.kind {
		case kindCounter:
			if snap.Counters == nil {
				snap.Counters = make(map[string]uint64)
			}
			snap.Counters[s.key()] = s.ctr.Value()
		case kindGauge:
			if snap.Gauges == nil {
				snap.Gauges = make(map[string]float64)
			}
			snap.Gauges[s.key()] = float64(s.gauge.Value())
		case kindGaugeFunc:
			if snap.Gauges == nil {
				snap.Gauges = make(map[string]float64)
			}
			snap.Gauges[s.key()] = s.fn()
		case kindHistogram:
			if snap.Histograms == nil {
				snap.Histograms = make(map[string]HistogramSnapshot)
			}
			h := s.hist
			hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
			var cum uint64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				hs.Buckets = append(hs.Buckets, BucketCount{LE: bound, Count: cum})
			}
			snap.Histograms[s.key()] = hs
		}
	}
	return snap
}
