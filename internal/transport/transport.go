// Package transport provides the message-passing substrate of the system
// model (§2): a fully connected, asynchronous, unreliable network between
// clients and replicas with fair-loss links.
//
// Two implementations are provided:
//
//   - Local: an in-process network connecting goroutines through channels,
//     with configurable per-link latency, loss probability, partitions, and
//     arbitrary filters used for fault and attack injection.
//   - TCP (see tcp.go): a TCP transport framed with the binary codec
//     (internal/transport/wirecodec) for multi-process deployments driven by
//     cmd/replica and cmd/client.
package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"abstractbft/internal/ids"
	"abstractbft/internal/obs"
)

// Envelope is a message in flight: a payload together with its source and
// destination.
type Envelope struct {
	From    ids.ProcessID
	To      ids.ProcessID
	Payload any
	// Trace is an optional envelope-level tracing context. The request plane
	// propagates trace contexts inside payloads (msg.Request.Trace), but
	// control messages without a request can stamp the envelope instead; the
	// wire codec carries it, and an untraced envelope pays zero extra wire
	// bytes. Expanded pack elements inherit the pack envelope's context.
	Trace obs.TraceContext
}

// Endpoint is one process's attachment to a network.
type Endpoint interface {
	// ID returns the identifier of the attached process.
	ID() ids.ProcessID
	// Send transmits payload to the destination process. Send never blocks;
	// messages may be dropped (fair-loss links).
	Send(to ids.ProcessID, payload any)
	// Inbox returns the channel on which incoming envelopes are delivered.
	Inbox() <-chan Envelope
	// Close detaches the endpoint; subsequent sends to it are dropped.
	Close()
}

// Filter inspects an envelope before delivery. Returning false drops the
// envelope. Filters are the hook used by fault and attack injection.
type Filter func(Envelope) bool

// Delayer returns the additional propagation delay for a message from one
// process to another.
type Delayer func(from, to ids.ProcessID, payload any) time.Duration

// Options configures a Local network.
type Options struct {
	// QueueLen is the per-endpoint inbox length; messages arriving at a full
	// inbox are dropped (modelling loss under overload). Defaults to 8192.
	QueueLen int
	// Delay, when non-nil, returns the propagation delay per message.
	Delay Delayer
	// LossProbability is the independent probability of dropping each
	// message (in [0,1)).
	LossProbability float64
	// Seed seeds the loss-model random generator; 0 selects a fixed seed so
	// runs are reproducible by default.
	Seed int64
}

// Local is an in-process network.
type Local struct {
	opts Options

	mu        sync.RWMutex
	endpoints map[ids.ProcessID]*localEndpoint
	filters   []Filter
	parts     map[ids.ProcessID]int // partition id per process; 0 = default partition
	rng       *rand.Rand
	rngMu     sync.Mutex
	closed    bool
	sizer     func(any) int

	// Traffic accounting is atomic: every delivery bumps it, and deliveries
	// from different senders must not serialise on the network lock.
	msgCount atomic.Uint64
	byteEst  atomic.Uint64
}

// NewLocal creates an in-process network with the given options.
func NewLocal(opts Options) *Local {
	if opts.QueueLen <= 0 {
		opts.QueueLen = 8192
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 42
	}
	return &Local{
		opts:      opts,
		endpoints: make(map[ids.ProcessID]*localEndpoint),
		parts:     make(map[ids.ProcessID]int),
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Endpoint attaches (or returns the existing attachment of) process p.
func (n *Local) Endpoint(p ids.ProcessID) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[p]; ok {
		return ep
	}
	ep := &localEndpoint{
		net: n,
		id:  p,
		in:  make(chan Envelope, n.opts.QueueLen),
	}
	n.endpoints[p] = ep
	return ep
}

// ResetEndpoint detaches process p's current endpoint (if any) and attaches
// a fresh one in its place: the crash-restart harness gives a restarted
// replica a clean inbox under its old identity, exactly like a process
// coming back up on the same address.
func (n *Local) ResetEndpoint(p ids.ProcessID) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.endpoints[p]; ok {
		old.closeLocked()
	}
	ep := &localEndpoint{
		net: n,
		id:  p,
		in:  make(chan Envelope, n.opts.QueueLen),
	}
	n.endpoints[p] = ep
	return ep
}

// AddFilter installs a delivery filter. Filters run in installation order;
// the first filter returning false drops the message.
func (n *Local) AddFilter(f Filter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.filters = append(n.filters, f)
}

// ClearFilters removes all installed filters.
func (n *Local) ClearFilters() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.filters = nil
}

// Partition places process p in the given partition. Messages are delivered
// only between processes in the same partition. All processes start in
// partition 0.
func (n *Local) Partition(p ids.ProcessID, partition int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parts[p] = partition
}

// Heal returns every process to partition 0.
func (n *Local) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parts = make(map[ids.ProcessID]int)
}

// SetSizer installs a function estimating the wire size of payloads, used for
// traffic accounting in benchmarks. It is called on the sender's goroutine
// with no network lock held, so it may be slow and must be safe for
// concurrent use.
func (n *Local) SetSizer(f func(any) int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sizer = f
}

// Stats returns the number of messages delivered and the estimated bytes.
func (n *Local) Stats() (messages, bytes uint64) {
	return n.msgCount.Load(), n.byteEst.Load()
}

// Close shuts the network down; all endpoints stop receiving.
func (n *Local) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, ep := range n.endpoints {
		ep.closeLocked()
	}
}

func (n *Local) deliver(env Envelope) {
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return
	}
	dst, ok := n.endpoints[env.To]
	filters := n.filters
	samePart := n.parts[env.From] == n.parts[env.To]
	loss := n.opts.LossProbability
	delay := n.opts.Delay
	sizer := n.sizer
	n.mu.RUnlock()

	if !ok || !samePart {
		return
	}
	for _, f := range filters {
		if !f(env) {
			return
		}
	}
	if loss > 0 {
		n.rngMu.Lock()
		drop := n.rng.Float64() < loss
		n.rngMu.Unlock()
		if drop {
			return
		}
	}

	n.msgCount.Add(1)
	if sizer != nil {
		n.byteEst.Add(uint64(sizer(env.Payload)))
	}

	if delay != nil {
		if d := delay(env.From, env.To, env.Payload); d > 0 {
			time.AfterFunc(d, func() { dst.enqueueUnpacked(env) })
			return
		}
	}
	dst.enqueueUnpacked(env)
}

type localEndpoint struct {
	net *Local
	id  ids.ProcessID

	mu     sync.Mutex
	in     chan Envelope
	closed bool
}

func (e *localEndpoint) ID() ids.ProcessID { return e.id }

func (e *localEndpoint) Send(to ids.ProcessID, payload any) {
	e.net.deliver(Envelope{From: e.id, To: to, Payload: payload})
}

func (e *localEndpoint) Inbox() <-chan Envelope { return e.in }

// enqueueUnpacked delivers an envelope, expanding write-coalesced packs into
// individual envelopes so inbox consumers only ever see protocol payloads.
func (e *localEndpoint) enqueueUnpacked(env Envelope) {
	if p, ok := env.Payload.(*Packed); ok {
		for _, payload := range p.Payloads {
			e.enqueue(Envelope{From: env.From, To: env.To, Payload: payload, Trace: env.Trace})
		}
		return
	}
	e.enqueue(env)
}

func (e *localEndpoint) enqueue(env Envelope) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	select {
	case e.in <- env:
	default:
		// Inbox full: drop, modelling loss under overload.
	}
}

func (e *localEndpoint) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closeInner()
}

func (e *localEndpoint) closeLocked() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closeInner()
}

func (e *localEndpoint) closeInner() {
	if e.closed {
		return
	}
	e.closed = true
	close(e.in)
}

// Multicast sends the payload from the endpoint to every destination in tos.
func Multicast(ep Endpoint, tos []ids.ProcessID, payload any) {
	for _, to := range tos {
		ep.Send(to, payload)
	}
}

// Packed carries several payloads destined to one process as a single wire
// envelope (write coalescing): the network treats the pack as one message
// (one queue slot, one loss/filter decision, one TCP frame) and unpacks it
// into individual envelopes on the receiving side, so inbox consumers never
// see it.
type Packed struct {
	Payloads []any
}

// SendBatch transmits several payloads to one destination as a single
// envelope. A batch of one (or zero) payloads degenerates to a plain Send.
//
//abstractbft:noalloc
func SendBatch(ep Endpoint, to ids.ProcessID, payloads []any) {
	switch len(payloads) {
	case 0:
	case 1:
		ep.Send(to, payloads[0])
	default:
		ep.Send(to, &Packed{Payloads: payloads})
	}
}

// SymmetricDelay returns a Delayer applying the same one-way delay to every
// link; it models the bounded delay Δ of synchronous periods.
func SymmetricDelay(d time.Duration) Delayer {
	return func(ids.ProcessID, ids.ProcessID, any) time.Duration { return d }
}
