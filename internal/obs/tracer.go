package obs

import (
	"sync/atomic"
	"time"
)

// Request lifecycle stages, in pipeline order. A traced request is timed
// through: client Send covers the whole send→commit round trip (the root
// span), while on the replica side Assemble covers enqueue→batch-cut, Order
// covers batch-cut→logged, Execute covers logged→applied, Merge covers
// logged→merged into the cross-shard total order, and Reply marks the
// speculative RESP leaving the replica (a point event). StageSend sits at the
// end of the block so the pre-existing stage numbering (and every registered
// trace_stage_seconds series) is unchanged.
const (
	StageAssemble = iota
	StageOrder
	StageExecute
	StageMerge
	StageReply
	StageSend
	numStages
)

var stageNames = [numStages]string{"assemble", "order", "execute", "merge", "reply", "send"}

// Tracer is the per-process tracing front end. It makes the head-sampling
// decision (one in every N new traces, decided once at the client via
// NewTrace) and records per-stage durations for propagated trace contexts:
// into histograms registered as trace_stage_seconds{stage="..."} and — when
// the tracer carries a SpanRing — into the ring served at
// /debug/traces.json. The sampling decision is one atomic add; recording for
// an unsampled context is one integer compare — both allocation-free, so the
// tracer stays enabled under load.
//
// A nil *Tracer never samples and ignores observations, so instrumented code
// calls it unconditionally.
type Tracer struct {
	every  uint64
	n      atomic.Uint64
	stages [numStages]*Histogram
	spans  *SpanRing
}

// NewTracer builds a tracer that samples one in every `every` decisions,
// recording stage durations into r (histograms only — no span ring). Returns
// nil (a disabled tracer) if r is nil or every <= 0.
func NewTracer(r *Registry, every int) *Tracer {
	return NewTracerRing(r, every, nil)
}

// NewTracerRing builds a tracer that additionally records every span of a
// sampled trace into the given ring (nil ring = histograms only). Returns nil
// if r is nil or every <= 0.
func NewTracerRing(r *Registry, every int, spans *SpanRing) *Tracer {
	if r == nil || every <= 0 {
		return nil
	}
	t := &Tracer{every: uint64(every), spans: spans}
	for s := 0; s < numStages; s++ {
		t.stages[s] = r.Histogram("trace_stage_seconds", LatencyBuckets, "stage", stageNames[s])
	}
	return t
}

// Spans returns the tracer's span ring (nil without one).
func (t *Tracer) Spans() *SpanRing {
	if t == nil {
		return nil
	}
	return t.spans
}

// NewTrace makes the head-sampling decision for one new request and, when it
// samples, allocates a fresh trace: the returned context has a nonzero
// TraceID and Parent 0 (the root). An unsampled decision returns the zero
// context at the cost of one atomic add — the 0 allocs/op hot path.
//
// The caller (the client) records its own root span by passing the returned
// context to Record, and stamps requests with {TraceID, Parent: TraceID} so
// downstream spans parent under the root.
//
//abstractbft:noalloc
func (t *Tracer) NewTrace() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	if t.n.Add(1)%t.every != 0 {
		return TraceContext{}
	}
	return TraceContext{TraceID: newID()}
}

// Record records one lifecycle stage of a propagated trace context: the stage
// histogram (skipped for zero-duration point events, which would only pollute
// the latency distribution) plus a span in the ring when the tracer has one.
// A context with Parent 0 records the trace's root span (span ID = trace ID);
// any other context records a child of ctx.Parent. Unsampled contexts return
// after one compare with zero allocations.
//
//abstractbft:noalloc
func (t *Tracer) Record(ctx TraceContext, stage, shard int, start time.Time, d time.Duration) {
	if t == nil || !ctx.Sampled() || stage < 0 || stage >= numStages {
		return
	}
	if d > 0 {
		t.stages[stage].ObserveDuration(d)
	}
	if t.spans == nil {
		return
	}
	sp := Span{
		TraceID:    ctx.TraceID,
		Shard:      shard,
		Stage:      stageNames[stage],
		Start:      start.UnixNano(),
		DurationNs: int64(d),
	}
	if ctx.Parent == 0 {
		sp.SpanID = ctx.TraceID
	} else {
		sp.SpanID = newID()
		sp.Parent = ctx.Parent
	}
	t.spans.add(sp)
}
