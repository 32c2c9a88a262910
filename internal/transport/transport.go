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
//
// An Envelope is From, To and Payload only. From is the sender's identity,
// and nothing else rides beside the payload: a trace context travels inside
// the request it traces (msg.Request.Trace), and a crash is a Local
// partition of its own, which cuts a process off both ways.
//
// Every reader of an inbox blocks on that inbox alone. Whatever else it waits
// for — a stop, a tick, a deadline, a cancelled context — sets a condition
// the reader owns and then calls Endpoint.Wake, which posts a wake-up into
// the endpoint's own inbox: an envelope with no payload whose From and To are
// the endpoint's own process. A wake-up is a local event, not a message:
//
//   - it never crosses a link, so no filter, loss, partition, delay or Stats
//     counter of Local sees it, nor any TCP metric;
//   - it is lossy: it never blocks, and it is dropped when the inbox is full,
//     which is safe because a full inbox wakes its reader anyway;
//   - it carries no authority: the reader re-checks its own conditions after
//     every envelope and acts only on what it finds true, so neither a
//     wake-up left over from an earlier wait nor a payload-free envelope
//     another process sends can make it act.
//
// A demultiplexer (shard.Router, Demux) routes at delivery: it attaches a
// route to its parent endpoint with Endpoint.Route, and every envelope
// delivered there goes into one of its children's mailboxes on the goroutine
// that delivers it — TCP's read loop, Local's sender or Local's delay timer.
// No goroutine relays envelopes from one inbox to another:
//
//   - a route runs on the delivering goroutine and must not block; a full
//     child mailbox drops (fair-loss links);
//   - a payload-free envelope is never routed: a wake-up stays with the
//     endpoint it was posted to, and another process's carries no authority;
//   - the envelopes queued on the parent when a route attaches are routed
//     before Route returns, not stranded in an inbox no one reads;
//   - a demultiplexer's Close detaches its route and closes its children's
//     mailboxes, and a delivery that races it is dropped.
package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"abstractbft/internal/ids"
)

// Envelope is a message in flight: a payload together with its source and
// destination, and nothing else. From is the only sender identity a message
// has: Local sets it, TCP proves it per connection, and no payload restates
// it. A trace context rides on the request it traces (msg.Request.Trace),
// never on the envelope.
type Envelope struct {
	From    ids.ProcessID
	To      ids.ProcessID
	Payload any
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
	// Wake posts a payload-free wake-up into the endpoint's own inbox (see
	// the package comment). It never blocks, is dropped when the inbox is
	// full or closed, and is safe to call from any goroutine.
	Wake()
	// Route attaches route in place of the inbox (see the package comment):
	// every envelope with a payload delivered from then on is handed to
	// route, on the delivering goroutine, and so are those already queued,
	// before Route returns. route must not block. Route(nil) detaches it;
	// once that returns, no call of the old route is in flight.
	Route(route func(Envelope))
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
	return n.attachLocked(p)
}

func (n *Local) attachLocked(p ids.ProcessID) *localEndpoint {
	ep := &localEndpoint{Mailbox: NewMailbox(p, n.opts.QueueLen), net: n}
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
		old.Close()
	}
	return n.attachLocked(p)
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
		ep.Close()
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
			time.AfterFunc(d, func() { dst.Deliver(env) })
			return
		}
	}
	dst.Deliver(env)
}

// localEndpoint is Local's attachment: its mailbox is the receive side.
type localEndpoint struct {
	*Mailbox
	net *Local
}

func (e *localEndpoint) ID() ids.ProcessID { return e.self }

func (e *localEndpoint) Send(to ids.ProcessID, payload any) {
	e.net.deliver(Envelope{From: e.self, To: to, Payload: payload})
}

// Multicast sends the payload from the endpoint to every destination in tos.
func Multicast(ep Endpoint, tos []ids.ProcessID, payload any) {
	for _, to := range tos {
		ep.Send(to, payload)
	}
}

// Pulse is the tick of a loop that blocks on its inbox alone: every period it
// marks itself due and wakes the endpoint, and the loop runs its periodic
// work when Due reports true after an envelope. The mark outlives a dropped
// wake-up, so a full inbox delays a tick to the loop's next envelope but
// never loses it.
type Pulse struct {
	ep     Endpoint
	period time.Duration
	due    atomic.Bool

	mu      sync.Mutex
	timer   *time.Timer
	stopped bool
}

// NewPulse starts a pulse waking ep every period.
func NewPulse(ep Endpoint, period time.Duration) *Pulse {
	p := &Pulse{ep: ep, period: period}
	p.mu.Lock()
	p.timer = time.AfterFunc(period, p.fire)
	p.mu.Unlock()
	return p
}

func (p *Pulse) fire() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.due.Store(true)
	p.ep.Wake()
	p.timer.Reset(p.period)
}

// Due reports whether a period elapsed since Due last reported true.
func (p *Pulse) Due() bool { return p.due.Load() && p.due.Swap(false) }

// Stop ends the pulse; no wake-up follows its return.
func (p *Pulse) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	p.timer.Stop()
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
