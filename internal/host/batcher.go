package host

import (
	"sort"
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/clock"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
)

// Batching defaults: a flush is triggered by the first of MaxBatch buffered
// requests or MaxDelay elapsed since the first buffered request.
const (
	DefaultMaxBatch = 16
	DefaultMaxDelay = time.Millisecond
)

// BatchPolicy configures the request batch assembler used by ordering
// replicas (the ZLight primary, the Chain head and Backup's PBFT primary).
// The zero value selects the defaults; MaxBatch=1 disables batching entirely
// and reproduces the unbatched per-request path.
type BatchPolicy struct {
	// MaxBatch is the maximum number of requests coalesced into one batch; a
	// full buffer flushes immediately. 0 selects DefaultMaxBatch, 1 disables
	// batching (every request is its own batch, flushed inline).
	MaxBatch int
	// MaxDelay bounds how long the first buffered request may wait for
	// companions before the batch is flushed. 0 selects DefaultMaxDelay;
	// negative disables the timer (size-only flushing, for tests).
	// Sub-millisecond values are honoured on Linux (the deadline sits on
	// internal/clock's timerfd); elsewhere the runtime rounds every timer
	// wait up to at least 1 ms.
	MaxDelay time.Duration
}

// normalized returns the policy with defaults applied.
func (p BatchPolicy) normalized() BatchPolicy {
	if p.MaxBatch <= 0 {
		p.MaxBatch = DefaultMaxBatch
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	return p
}

// BatchItem is one client request buffered by the batch assembler, together
// with the client-supplied credentials the protocol needs to forward.
type BatchItem struct {
	// Req is the client request.
	Req msg.Request
	// Digest is Req.Digest(), set by a protocol that computed it to verify
	// the client's authenticator and reads it back in its flush function so
	// ordering does not hash the request again (ZLight); others leave it zero.
	Digest authn.Digest
	// Auth is the client's MAC authenticator (ZLight, Backup).
	Auth authn.Authenticator
	// CA is the client's chain authenticator (Chain).
	CA authn.ChainAuthenticator
}

// Batcher coalesces incoming client requests into batches under a size/delay
// policy. Add and Flush are called with the host lock held (from the host's
// event loop); the delay timer re-acquires the lock through Host.Locked, so
// flush callbacks always run under the same lock as protocol handlers and
// need no extra synchronization.
type Batcher struct {
	h      *Host
	policy BatchPolicy
	flush  func(items []BatchItem)

	buf   []BatchItem
	timer *clock.Timer
	// gen invalidates pending timers when the buffer they were armed for has
	// already been flushed by size.
	gen uint64
	// firstAdd is the arrival time of the oldest buffered request, taken only
	// when lifecycle tracing or metrics are on: flush-time minus firstAdd is
	// the batch assembly stage of a sampled request, and on a timer flush
	// what it exceeds MaxDelay by is the deadline overshoot.
	firstAdd time.Time
}

// NewBatcher creates a batch assembler bound to this host's batch policy.
// The flush callback is invoked with the host lock held; the items are its
// to read until it returns, when the assembler takes their storage back.
func (h *Host) NewBatcher(flush func(items []BatchItem)) *Batcher {
	return &Batcher{h: h, policy: h.cfg.Batch.normalized(), flush: flush}
}

// Pending returns the number of buffered requests (host lock held).
func (b *Batcher) Pending() int { return len(b.buf) }

// Add buffers one request, flushing when the size trigger fires. It must be
// called with the host lock held. Exact duplicates of an already-buffered
// request (same client and timestamp) are dropped so a retransmission inside
// the delay window cannot order a request twice within one batch.
func (b *Batcher) Add(it BatchItem) {
	id := it.Req.ID()
	for _, have := range b.buf {
		if have.Req.ID() == id {
			return
		}
	}
	b.buf = append(b.buf, it)
	if len(b.buf) == 1 && (b.h.cfg.Tracer != nil || b.h.cfg.Metrics != nil) {
		b.firstAdd = time.Now()
	}
	if len(b.buf) >= b.policy.MaxBatch {
		b.Flush()
		return
	}
	if b.timer == nil && b.policy.MaxDelay > 0 {
		gen := b.gen
		b.timer = clock.AfterFunc(b.policy.MaxDelay, func() {
			b.h.Locked(func() {
				if b.gen != gen {
					return
				}
				b.timer = nil
				if !b.firstAdd.IsZero() {
					b.h.met.overshoot.ObserveDuration(time.Since(b.firstAdd) - b.policy.MaxDelay)
				}
				b.Flush()
			})
		})
	}
}

// Flush emits the buffered requests as one batch (host lock held). The items
// are ordered by (client, timestamp) so that pipelined requests of one client
// are logged in issue order regardless of arrival interleaving.
func (b *Batcher) Flush() {
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if len(b.buf) == 0 {
		return
	}
	items := b.buf
	b.buf = nil
	b.h.met.batches.Inc()
	b.h.met.batchFill.Observe(float64(len(items)))
	if b.h.cfg.Tracer != nil && !b.firstAdd.IsZero() {
		// The batch is traced iff a member carries a client-stamped trace
		// context (head sampling happens at the client, not here).
		var ctx obs.TraceContext
		for i := range items {
			if items[i].Req.Trace.Sampled() {
				ctx = items[i].Req.Trace
				break
			}
		}
		if ctx.Sampled() {
			now := time.Now()
			b.h.cfg.Tracer.Record(ctx, obs.StageAssemble, b.h.cfg.Shard, b.firstAdd, now.Sub(b.firstAdd))
			// Hand the sampled batch to LogBatch for the ordering stage.
			b.h.traceCtx = ctx
			b.h.traceFlushT = now
		}
	}
	b.firstAdd = time.Time{}
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].Req.Client != items[j].Req.Client {
			return items[i].Req.Client < items[j].Req.Client
		}
		return items[i].Req.Timestamp < items[j].Req.Timestamp
	})
	b.flush(items)
	if b.buf == nil {
		clear(items)
		b.buf = items[:0]
	}
}

// FilterFreshItems applies the instance's batch freshness rule
// (InstanceState.FilterFreshBatch) to flushed assembler items: it returns
// the loggable items together with their batch, and the stale remainder
// (already ordered while the item waited in the assembler). Keeping orderers
// and verifiers on the same rule lives here, next to the assembler.
func FilterFreshItems(st *InstanceState, items []BatchItem) (fresh []BatchItem, batch msg.Batch, stale []BatchItem) {
	all := msg.Batch{Requests: make([]msg.Request, len(items))}
	for i := range items {
		all.Requests[i] = items[i].Req
	}
	batch, staleReqs := st.FilterFreshBatch(all)
	if len(staleReqs) == 0 {
		return items, batch, nil
	}
	// The fresh batch keeps the items' order, so one pass pairs them up.
	next := 0
	for _, it := range items {
		if next < batch.Len() && it.Req.ID() == batch.Requests[next].ID() {
			fresh = append(fresh, it)
			next++
		} else {
			stale = append(stale, it)
		}
	}
	return fresh, batch, stale
}
