package transport

import (
	"sync"

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

// Demux fans one process's endpoint out to several virtual endpoints so that
// a client can keep multiple invocations in flight concurrently. Each
// invocation opens a subscription naming the request timestamps it owns and
// receives the replies to those requests plus every payload that names no
// request; its receive loop filters exactly as it does on a private inbox.
// The Demux routes at delivery (see the package comment): it starts no
// goroutine. Sends pass straight through to the underlying endpoint.
type Demux struct {
	ep Endpoint

	mu   sync.Mutex
	subs map[*demuxEndpoint]struct{}
	// owners maps a request timestamp to the subscription that opened it.
	owners map[uint64]*demuxEndpoint
	// free holds the mailboxes of closed subscriptions (drained) for the
	// next Open: a pipelined client opens one subscription per invocation,
	// and a fresh demuxQueueLen-slot inbox each time dominated its
	// allocation.
	free   []*Mailbox
	closed bool
}

// demuxQueueLen is the per-subscription buffer; a full subscription drops
// messages, preserving the fair-loss model.
const demuxQueueLen = 1024

// NewDemux attaches a demultiplexer to the endpoint. The caller must not
// read ep.Inbox directly afterwards.
func NewDemux(ep Endpoint) *Demux {
	d := &Demux{
		ep:     ep,
		subs:   make(map[*demuxEndpoint]struct{}),
		owners: make(map[uint64]*demuxEndpoint),
	}
	ep.Route(d.route)
	return d
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
			sub.box.Deliver(env)
		}
		return
	}
	for sub := range d.subs {
		sub.box.Deliver(env)
	}
}

// Close detaches the demux from the endpoint and closes every open
// subscription's inbox. The underlying endpoint stays open for other users.
func (d *Demux) Close() {
	d.ep.Route(nil)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for sub := range d.subs {
		sub.box.Close()
	}
	d.subs, d.owners, d.free = nil, nil, nil
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
		sub.box = NewMailbox(d.ep.ID(), 0)
		sub.box.Close()
		return sub
	}
	if n := len(d.free); n > 0 {
		sub.box, d.free = d.free[n-1], d.free[:n-1]
	} else {
		sub.box = NewMailbox(d.ep.ID(), demuxQueueLen)
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
	box        *Mailbox
}

func (s *demuxEndpoint) ID() ids.ProcessID { return s.d.ep.ID() }

func (s *demuxEndpoint) Send(to ids.ProcessID, payload any) { s.d.ep.Send(to, payload) }

func (s *demuxEndpoint) Inbox() <-chan Envelope { return s.box.Inbox() }

// Wake implements Endpoint: the wake-up goes into this subscription's inbox
// only, and not after the subscription closed (its mailbox may serve the
// next Open by then).
func (s *demuxEndpoint) Wake() {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if _, ok := s.d.subs[s]; ok {
		s.box.Wake()
	}
}

// Route implements Endpoint. Close detaches the route, so a reused mailbox
// starts the next Open without one.
func (s *demuxEndpoint) Route(route func(Envelope)) { s.box.Route(route) }

// Close unsubscribes the virtual endpoint and hands its (drained) mailbox
// back to the demux; the underlying endpoint stays open.
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
	// route and Wake deliver only under the lock held here, so nothing can
	// arrive after the drain.
	s.box.Route(nil)
	for len(s.box.in) > 0 {
		<-s.box.in
	}
	s.d.free = append(s.d.free, s.box)
}

var _ Endpoint = (*demuxEndpoint)(nil)
