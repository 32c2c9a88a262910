package transport

import (
	"io"
	"sync/atomic"

	"abstractbft/internal/obs"
)

// TCPMetrics bundles the transport-layer series of the observability plane:
// frames and bytes in each direction, write-coalescing flush sizes, and the
// three drop/error paths (full send queue, unencodable payload, decode
// error). A nil *TCPMetrics (endpoint not instrumented) costs one nil check
// per record site.
type TCPMetrics struct {
	reg          *obs.Registry
	framesIn     *obs.Counter   // transport_frames_total{dir="in"}
	framesOut    *obs.Counter   // transport_frames_total{dir="out"}
	bytesIn      *obs.Counter   // transport_bytes_total{dir="in"}
	bytesOut     *obs.Counter   // transport_bytes_total{dir="out"}
	flushes      *obs.Counter   // transport_flushes_total
	flushBytes   *obs.Histogram // transport_flush_bytes (coalesced write size)
	queueDrops   *obs.Counter   // transport_send_queue_drops_total
	encodeDrops  *obs.Counter   // transport_unencodable_drops_total
	decodeErrors *obs.Counter   // transport_decode_errors_total
	packsIn      *obs.Counter   // transport_pack_payloads_total (expanded)
}

// NewTCPMetrics registers the transport series in r (nil r returns nil, the
// uninstrumented endpoint).
func NewTCPMetrics(r *obs.Registry) *TCPMetrics {
	if r == nil {
		return nil
	}
	return &TCPMetrics{
		reg:          r,
		framesIn:     r.Counter("transport_frames_total", "dir", "in"),
		framesOut:    r.Counter("transport_frames_total", "dir", "out"),
		bytesIn:      r.Counter("transport_bytes_total", "dir", "in"),
		bytesOut:     r.Counter("transport_bytes_total", "dir", "out"),
		flushes:      r.Counter("transport_flushes_total"),
		flushBytes:   r.Histogram("transport_flush_bytes", obs.SizeBuckets),
		queueDrops:   r.Counter("transport_send_queue_drops_total"),
		encodeDrops:  r.Counter("transport_unencodable_drops_total"),
		decodeErrors: r.Counter("transport_decode_errors_total"),
		packsIn:      r.Counter("transport_pack_payloads_total"),
	}
}

// SetMetrics instruments the endpoint. Call it before traffic flows (only
// connections created after the call are counted). It also registers
// scrape-time gauges over the endpoint's connections and queues — per-queue
// depth costs the hot path nothing this way.
func (t *TCP) SetMetrics(m *TCPMetrics) {
	if m == nil {
		return
	}
	t.metrics.Store(m)
	m.reg.GaugeFunc("transport_conns", func() float64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return float64(len(t.conns))
	})
	m.reg.GaugeFunc("transport_send_queue_depth_max", func() float64 {
		deepest := 0
		for _, l := range t.links {
			deepest = max(deepest, len(l.out))
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		for _, c := range t.routes {
			deepest = max(deepest, len(c.out))
		}
		return float64(deepest)
	})
}

// countingWriter counts bytes onto the wire: the running total feeds the
// transport_bytes_total{dir="out"} counter, and the writeLoop samples n
// around each flush to size the coalesced writes.
type countingWriter struct {
	w     io.Writer
	n     atomic.Uint64
	total *obs.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.n.Add(uint64(n))
		cw.total.Add(uint64(n))
	}
	return n, err
}

// countingReader mirrors countingWriter for the inbound byte counter.
type countingReader struct {
	r     io.Reader
	total *obs.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.total.Add(uint64(n))
	}
	return n, err
}
