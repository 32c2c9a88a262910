package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// DefaultTimestampWindow is the width of the replicas' per-client timestamp
// window: a replica accepts a request whose timestamp lies up to this far
// below the client's high-water mark, provided that exact timestamp was never
// logged, and caches the replies of that many highest timestamps. A
// PipelinedComposer keeps its in-flight timestamps within it. The bitmask of
// a window holds 64 timestamps, so the width cannot grow past 64.
const DefaultTimestampWindow = 64

// PipelineOptions tunes a PipelinedComposer.
type PipelineOptions struct {
	// Depth bounds the number of invocations the client keeps in flight
	// concurrently (the callers of Invoke provide the concurrency; Depth
	// bounds how many of them proceed at once). 0 selects 8. It also bounds
	// how many queued invocations are coalesced into one client-side batch
	// when the active instance supports batched invocation (Quorum).
	Depth int
}

// gatherDelay is how long the batch dispatcher waits for companion
// invocations after the first one arrives.
const gatherDelay = 500 * time.Microsecond

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Depth <= 0 {
		o.Depth = 8
	}
	return o
}

// PipelinedComposer is the pipelining variant of Composer: instead of strict
// invoke-then-wait, a client keeps up to Depth invocations in flight at once.
// Each invocation runs on a virtual endpoint of a shared demultiplexer that
// hands it the replies to its own request timestamps (and every message that
// names no request), so concurrent receive loops neither steal nor wade
// through each other's messages; the instance
// switching state (ACP) is shared across invocations. When the active
// instance supports batched invocation (core.BatchInstance, implemented by
// Quorum), queued invocations are coalesced into one batch message covered by
// a single authenticator. An invocation whose timestamp lies a full
// DefaultTimestampWindow above one still in flight waits for it to complete.
type PipelinedComposer struct {
	newFactory func(ClientEnv) InstanceFactory
	demux      *transport.Demux
	opts       PipelineOptions

	// acpState's mu also guards the fields below.
	acpState
	// batchable caches, per instance, whether its client handle implements
	// BatchInstance.
	batchable map[InstanceID]bool

	// inflight holds the timestamps of the invocations in flight (at most
	// Depth); retired, when non-nil, is closed when one of them completes,
	// waking the invocations waiting in admit.
	inflight []uint64
	retired  chan struct{}
	// waits holds the InboxWaits of closed subscriptions for the next ones.
	waits []*InboxWait

	// sem bounds concurrent in-flight invocations.
	sem chan struct{}
	// queue feeds the batch dispatcher.
	queue     chan *pipelineSub
	startOnce sync.Once
	stop      chan struct{}
	stopOnce  sync.Once
}

type pipelineResult struct {
	reply []byte
	err   error
}

type pipelineSub struct {
	ctx  context.Context
	req  msg.Request
	done chan pipelineResult
}

// NewPipelinedComposer creates a pipelined composer starting at
// FirstInstance. The env's endpoint is taken over by the composer's
// demultiplexer and must not be read by anyone else afterwards.
func NewPipelinedComposer(env ClientEnv, newFactory func(ClientEnv) InstanceFactory, opts PipelineOptions) (*PipelinedComposer, error) {
	opts = opts.withDefaults()
	p := &PipelinedComposer{
		newFactory: newFactory,
		demux:      transport.NewDemux(env.Endpoint),
		opts:       opts,
		acpState:   acpState{env: env, active: FirstInstance},
		batchable:  make(map[InstanceID]bool),
		inflight:   make([]uint64, 0, opts.Depth),
		sem:        make(chan struct{}, opts.Depth),
		queue:      make(chan *pipelineSub),
		stop:       make(chan struct{}),
	}
	// Fail fast when the factory cannot build the first instance.
	if _, err := newFactory(env)(FirstInstance); err != nil {
		return nil, fmt.Errorf("core: creating instance %d: %w", FirstInstance, err)
	}
	return p, nil
}

// Close stops the batch dispatcher and detaches the demultiplexer from the
// endpoint; in-flight invocations see their virtual inboxes close and return
// ErrStopped.
func (p *PipelinedComposer) Close() {
	p.stopOnce.Do(func() {
		close(p.stop)
		p.demux.Close()
	})
}

// Invoke submits a request and blocks until it commits (or ctx is
// cancelled). Aborts are handled internally by switching, as in Composer;
// concurrency comes from callers invoking from multiple goroutines.
func (p *PipelinedComposer) Invoke(ctx context.Context, req msg.Request) ([]byte, error) {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-p.sem }()
	if err := p.admit(ctx, req.Timestamp); err != nil {
		return nil, err
	}
	defer p.retire(req.Timestamp)

	if p.isBatchable(p.ActiveInstance()) {
		p.startOnce.Do(func() { go p.dispatch() })
		sub := &pipelineSub{ctx: ctx, req: req, done: make(chan pipelineResult, 1)}
		select {
		case p.queue <- sub:
			// sub.done is buffered, so runBatch's send cannot block even
			// when we stop waiting on cancellation.
			select {
			case res := <-sub.done:
				return res.reply, res.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case <-p.stop:
			// Dispatcher stopped: fall through to the direct path.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return p.invokeOne(ctx, req)
}

// admit registers an invocation of timestamp ts as in flight, first waiting
// until ts lies inside the replicas' timestamp window of every invocation
// already in flight (ts < t + DefaultTimestampWindow for each in-flight t).
// Replicas answer a retransmission from their reply caches only within that
// window. Were an invocation stalled in flight — say, waiting out its panic
// timer for the reply of a replica that crashed — overtaken by a window's
// worth of later timestamps, its retry would find the request executed and
// its reply evicted on every replica, and no instance could ever answer it.
func (p *PipelinedComposer) admit(ctx context.Context, ts uint64) error {
	for {
		p.mu.Lock()
		inside := true
		for _, t := range p.inflight {
			if ts >= t+DefaultTimestampWindow {
				inside = false
				break
			}
		}
		if inside {
			p.inflight = append(p.inflight, ts)
			p.mu.Unlock()
			return nil
		}
		if p.retired == nil {
			p.retired = make(chan struct{})
		}
		retired := p.retired
		p.mu.Unlock()
		select {
		case <-retired:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// retire removes ts from the in-flight set and wakes the waiting admissions.
func (p *PipelinedComposer) retire(ts uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, t := range p.inflight {
		if t == ts {
			last := len(p.inflight) - 1
			p.inflight[i] = p.inflight[last]
			p.inflight = p.inflight[:last]
			break
		}
	}
	if p.retired != nil {
		close(p.retired)
		p.retired = nil
	}
}

// isBatchable reports whether the instance's client handle supports batched
// invocation, probing (and caching) via a throwaway handle.
func (p *PipelinedComposer) isBatchable(id InstanceID) bool {
	p.mu.Lock()
	if b, ok := p.batchable[id]; ok {
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	inst, err := p.newFactory(p.env)(id)
	_, isBatch := inst.(BatchInstance)
	b := err == nil && isBatch
	p.mu.Lock()
	p.batchable[id] = b
	p.mu.Unlock()
	return b
}

// dispatch gathers queued invocations into batches and hands each batch to a
// worker goroutine, so consecutive batches pipeline behind each other.
func (p *PipelinedComposer) dispatch() {
	for {
		var first *pipelineSub
		select {
		case <-p.stop:
			return
		case first = <-p.queue:
		}
		batch := []*pipelineSub{first}
		if p.opts.Depth > 1 {
			timer := time.NewTimer(gatherDelay)
		gather:
			for len(batch) < p.opts.Depth {
				select {
				case sub := <-p.queue:
					batch = append(batch, sub)
				case <-timer.C:
					break gather
				case <-p.stop:
					break gather
				}
			}
			timer.Stop()
		}
		go p.runBatch(batch)
	}
}

// runBatch invokes one gathered batch: the batched fast path when the active
// instance supports it, falling back to per-request invocation (with its
// panicking and switching machinery) for anything the fast path leaves
// uncommitted.
func (p *PipelinedComposer) runBatch(subs []*pipelineSub) {
	if len(subs) > 1 {
		sort.SliceStable(subs, func(i, j int) bool { return subs[i].req.Timestamp < subs[j].req.Timestamp })
	}
	id, init := p.take()
	reqs := make([]msg.Request, len(subs))
	timestamps := make([]uint64, len(subs))
	for i, s := range subs {
		reqs[i] = s.req
		timestamps[i] = s.req.Timestamp
	}
	env := p.subscribe(timestamps...)
	inst, err := p.newFactory(env)(id)
	var outs []Outcome
	var berr error
	if bi, ok := inst.(BatchInstance); err == nil && ok {
		// The batch runs under its own context so one caller's cancelled or
		// short-deadline context cannot defeat the fast path for everyone
		// else; InvokeBatch is internally bounded by the instance's commit
		// timer, and each member's own context still governs its fallback.
		outs, berr = bi.InvokeBatch(context.Background(), reqs, init)
	}
	// Otherwise the active instance switched to a non-batchable one between
	// enqueue and dispatch, and every request runs individually.
	p.unsubscribe(env)
	// Deliver the committed outcomes, fall back individually for the rest.
	var fallback sync.WaitGroup
	for i, s := range subs {
		if outs != nil && berr == nil && i < len(outs) && outs[i].Committed {
			s.done <- pipelineResult{reply: outs[i].Reply}
			continue
		}
		fallback.Add(1)
		go func(s *pipelineSub) {
			defer fallback.Done()
			reply, err := p.invokeOne(s.ctx, s.req)
			s.done <- pipelineResult{reply: reply, err: err}
		}(s)
	}
	fallback.Wait()
}

// invokeOne runs the ACP loop for a single request, each invocation on a
// private virtual endpoint of the demultiplexer.
func (p *PipelinedComposer) invokeOne(ctx context.Context, req msg.Request) ([]byte, error) {
	var env ClientEnv
	open := func(id InstanceID) (Instance, error) {
		env = p.subscribe(req.Timestamp)
		return p.newFactory(env)(id)
	}
	return p.invoke(ctx, req, open, func() { p.unsubscribe(env) })
}

// subscribe opens a demultiplexer subscription for the given timestamps and
// returns the client environment attached to it, with a recycled InboxWait.
func (p *PipelinedComposer) subscribe(timestamps ...uint64) ClientEnv {
	vep := p.demux.Open(timestamps...)
	env := p.env
	env.Endpoint, env.wait = vep, nil
	p.mu.Lock()
	if n := len(p.waits); n > 0 {
		env.wait, p.waits = p.waits[n-1], p.waits[:n-1]
	}
	p.mu.Unlock()
	if env.wait == nil {
		env.wait = newInboxWait(vep)
	} else {
		env.wait.rebind(vep)
	}
	return env
}

// unsubscribe closes env's subscription and keeps its InboxWait for the next.
func (p *PipelinedComposer) unsubscribe(env ClientEnv) {
	env.Endpoint.Close()
	p.mu.Lock()
	p.waits = append(p.waits, env.wait)
	p.mu.Unlock()
}
