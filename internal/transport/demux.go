package transport

import (
	"sync"
	"sync/atomic"

	"abstractbft/internal/ids"
)

// RequestScoped is implemented by payloads that answer exactly one client
// request (core.RespMessage, Chain's tail reply): a Demux delivers them only
// to the subscription that owns the request's timestamp. Payloads without a
// request identity (AbortReply, which a replica sends identically to every
// panicking request) are broadcast to all open subscriptions.
type RequestScoped interface {
	RequestTimestamp() uint64
}

// Demux fans one process's inbox out to several virtual endpoints so that a
// client can keep multiple invocations in flight concurrently. Each
// invocation opens a subscription naming the request timestamps it owns and
// receives the replies to those requests plus every payload that names no
// request; its receive loop filters exactly as it does on a private inbox.
// Sends pass straight through to the underlying endpoint.
type Demux struct {
	ep Endpoint

	mu   sync.Mutex
	subs map[*demuxEndpoint]struct{}
	// owners maps a request timestamp to the subscription that opened it.
	owners map[uint64]*demuxEndpoint
	// free holds the inbox channels of closed subscriptions (drained) for
	// the next Open: a pipelined client opens one subscription per
	// invocation, and a fresh demuxQueueLen-slot channel each time dominated
	// its allocation.
	free   []chan Envelope
	closed bool
	// stopping ends the fan-out loop at the next envelope (Close wakes it).
	stopping atomic.Bool
}

// demuxQueueLen is the per-subscription buffer; a full subscription drops
// messages, preserving the fair-loss model.
const demuxQueueLen = 1024

// NewDemux starts demultiplexing the endpoint's inbox. The caller must not
// read ep.Inbox directly afterwards.
func NewDemux(ep Endpoint) *Demux {
	d := &Demux{
		ep:     ep,
		subs:   make(map[*demuxEndpoint]struct{}),
		owners: make(map[uint64]*demuxEndpoint),
	}
	go d.run()
	return d
}

// run is the fan-out loop. A payload-free envelope is a wake-up, Close's or
// another process's; neither is routed, and the stop flag alone decides.
func (d *Demux) run() {
	defer d.closeSubs()
	for env := range d.ep.Inbox() {
		if d.stopping.Load() {
			return
		}
		if env.Payload != nil {
			d.route(env)
		}
	}
}

// route delivers one envelope: to the owner of the request it answers (or
// nobody, when that invocation already completed), or to every open
// subscription when it names no request. A backlogged subscription drops
// (fair-loss links); route never blocks.
func (d *Demux) route(env Envelope) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if scoped, ok := env.Payload.(RequestScoped); ok {
		if sub := d.owners[scoped.RequestTimestamp()]; sub != nil {
			sub.offer(env)
		}
		return
	}
	for sub := range d.subs {
		sub.offer(env)
	}
}

// closeSubs marks the demux closed and closes every subscription.
func (d *Demux) closeSubs() {
	d.mu.Lock()
	d.closed = true
	for sub := range d.subs {
		close(sub.in)
	}
	d.subs, d.owners, d.free = nil, nil, nil
	d.mu.Unlock()
}

// Close detaches the demux from the endpoint: the fan-out goroutine exits
// and every open subscription's inbox is closed. The underlying endpoint
// stays open for other users.
func (d *Demux) Close() {
	d.stopping.Store(true)
	d.ep.Wake()
}

// Open creates a virtual endpoint for one invocation: it receives the
// request-scoped payloads answering the given timestamps and a copy of every
// unscoped payload. A timestamp opened twice belongs to the later
// subscription. Close the returned endpoint when the invocation completes,
// from the goroutine that read its inbox; it must not be used afterwards.
func (d *Demux) Open(timestamps ...uint64) Endpoint {
	d.mu.Lock()
	defer d.mu.Unlock()
	sub := &demuxEndpoint{d: d, timestamps: timestamps}
	if d.closed {
		sub.in = make(chan Envelope)
		close(sub.in)
		return sub
	}
	if n := len(d.free); n > 0 {
		sub.in, d.free = d.free[n-1], d.free[:n-1]
	} else {
		sub.in = make(chan Envelope, demuxQueueLen)
	}
	d.subs[sub] = struct{}{}
	for _, ts := range timestamps {
		d.owners[ts] = sub
	}
	return sub
}

type demuxEndpoint struct {
	d          *Demux
	timestamps []uint64
	in         chan Envelope
}

func (s *demuxEndpoint) ID() ids.ProcessID { return s.d.ep.ID() }

func (s *demuxEndpoint) Send(to ids.ProcessID, payload any) { s.d.ep.Send(to, payload) }

func (s *demuxEndpoint) Inbox() <-chan Envelope { return s.in }

// Wake implements Endpoint: the wake-up goes into this subscription's inbox
// only, and not after the subscription closed (its channel may serve the
// next Open by then).
func (s *demuxEndpoint) Wake() {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if _, ok := s.d.subs[s]; ok {
		id := s.d.ep.ID()
		s.offer(Envelope{From: id, To: id})
	}
}

// offer enqueues without blocking (demux lock held).
func (s *demuxEndpoint) offer(env Envelope) {
	select {
	case s.in <- env:
	default:
		// Subscription backlogged: drop (fair-loss links).
	}
}

// Close unsubscribes the virtual endpoint and hands its (drained) inbox
// channel back to the demux; the underlying endpoint stays open.
func (s *demuxEndpoint) Close() {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if _, ok := s.d.subs[s]; !ok {
		return
	}
	delete(s.d.subs, s)
	for _, ts := range s.timestamps {
		if s.d.owners[ts] == s {
			delete(s.d.owners, ts)
		}
	}
	// route sends only under the lock held here, so nothing can arrive
	// after the drain.
	for len(s.in) > 0 {
		<-s.in
	}
	s.d.free = append(s.d.free, s.in)
}

var _ Endpoint = (*demuxEndpoint)(nil)
