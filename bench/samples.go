package bench

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Samples is the benchmark's latency store: it keeps every observation (no
// reservoir, no buckets), so a percentile is an order statistic of the full
// window and its sample count can be printed beside it.
type Samples struct {
	ns     []int64
	sorted bool
}

// Add records one latency.
func (s *Samples) Add(d time.Duration) {
	s.ns = append(s.ns, int64(d))
	s.sorted = false
}

// Len returns the number of recorded latencies.
func (s *Samples) Len() int { return len(s.ns) }

// Percentile returns the nearest-rank p-th percentile, p on the 0–100 scale:
// the smallest recorded value with at least p percent of the sample at or
// below it (p=0 is the minimum, p=100 the maximum). An empty store returns 0.
//
// The scale is percent, not a fraction: Percentile(0.50) is the half-percent
// point — effectively the minimum — not the median. Call P50/P99 for the
// reported metrics.
func (s *Samples) Percentile(p float64) time.Duration {
	n := len(s.ns)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		slices.Sort(s.ns)
		s.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return time.Duration(s.ns[rank-1])
}

// P50 returns the median.
func (s *Samples) P50() time.Duration { return s.Percentile(50) }

// P99 returns the 99th percentile.
func (s *Samples) P99() time.Duration { return s.Percentile(99) }

// Max returns the largest recorded latency.
func (s *Samples) Max() time.Duration { return s.Percentile(100) }

// BeyondP99 returns how many observations lie above the 99th percentile's
// rank — the support of the reported tail.
func (s *Samples) BeyondP99() int {
	n := len(s.ns)
	return n - int(math.Ceil(0.99*float64(n)))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of vs (mean of the two middle values for an even
// count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Spread summarises the repeated values behind one reported metric.
type Spread struct {
	// Value is the reported statistic of the values (set by the caller).
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// IQR is the distance between the first and third quartile (the
	// "exclusive" method, matching Python's statistics.quantiles(n=4)); 0
	// with fewer than two values.
	IQR float64 `json:"iqr"`
}

// spreadOf computes the summary of vs.
func spreadOf(vs []float64) Spread {
	if len(vs) == 0 {
		return Spread{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	sp := Spread{Median: median(s), Min: s[0], Max: s[len(s)-1]}
	if len(s) >= 2 {
		sp.IQR = quantileExclusive(s, 0.75) - quantileExclusive(s, 0.25)
	}
	return sp
}

// quantileExclusive interpolates the q-quantile of sorted at position
// q*(n+1), clamped to the data — the method of statistics.quantiles.
func quantileExclusive(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		return sorted[0]
	}
	if j >= n {
		return sorted[n-1]
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// goodDecile returns the nearest-rank 10th percentile of vs counted from the
// good side: the value that the best tenth of the windows reach or beat.
//
// Why not the median: on the shared 2-vCPU boxes this benchmark runs on,
// co-tenants slow the machine by 10-30 % for seconds at a time (a fixed
// sha256+memory kernel measured alongside showed the same swings), and that
// only ever makes a window worse. The good-side decile estimates the
// undisturbed machine and repeats between runs about twice as closely as the
// window median; with 50 windows it is the 5th best, not a single lucky
// window. The median is printed and stored beside it.
func goodDecile(vs []float64, higherIsBetter bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(0.10 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if higherIsBetter {
		return s[len(s)-rank]
	}
	return s[rank-1]
}
