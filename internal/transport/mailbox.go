package transport

import (
	"sync"

	"abstractbft/internal/ids"
)

// Mailbox is the receive side of an endpoint: a bounded inbox that never
// blocks its deliverer, or, while a route is attached, the route itself. It
// is the one place a write-coalesced Packed is expanded into its payloads.
type Mailbox struct {
	self ids.ProcessID

	// mu guards closed and route against Close and Route without
	// serializing deliverers: Deliver holds it shared, Close and Route
	// exclusively, so no deliverer is ever between its closed check and its
	// send on a closed channel, and none still runs a detached route.
	mu     sync.RWMutex
	in     chan Envelope
	closed bool
	route  func(Envelope)
}

// NewMailbox returns an open mailbox of process self holding up to size
// envelopes.
func NewMailbox(self ids.ProcessID, size int) *Mailbox {
	return &Mailbox{self: self, in: make(chan Envelope, size)}
}

// Inbox returns the channel the mailbox queues envelopes on; it is closed by
// Close.
func (m *Mailbox) Inbox() <-chan Envelope { return m.in }

// Deliver hands env to the mailbox, one envelope per payload of a Packed
// (each inheriting the pack's addresses). An envelope with a payload goes to
// the attached route if there is one; otherwise, and for every payload-free
// envelope, it is queued. A full or closed mailbox drops it (fair-loss
// links). Deliver never blocks and is safe for concurrent use.
//
//abstractbft:noalloc
func (m *Mailbox) Deliver(env Envelope) {
	if p, ok := env.Payload.(*Packed); ok {
		for _, payload := range p.Payloads {
			m.deliverOne(Envelope{From: env.From, To: env.To, Payload: payload})
		}
		return
	}
	m.deliverOne(env)
}

func (m *Mailbox) deliverOne(env Envelope) {
	m.mu.RLock()
	switch {
	case m.closed:
	case m.route != nil && env.Payload != nil:
		m.route(env)
	default:
		select {
		case m.in <- env:
		default:
			// Full: drop, modelling loss under overload.
		}
	}
	m.mu.RUnlock()
}

// Wake posts a wake-up: a payload-free envelope from the mailbox's process
// to itself (see the package comment). It is never routed.
func (m *Mailbox) Wake() { m.deliverOne(Envelope{From: m.self, To: m.self}) }

// Route attaches route to the mailbox (see Endpoint.Route); nil detaches it.
// The envelopes with a payload that are queued when a route attaches are
// handed to it first, in order, so none is stranded in an inbox no one
// reads.
func (m *Mailbox) Route(route func(Envelope)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.route = route
	if route == nil {
		return
	}
	for n := len(m.in); n > 0; n-- {
		select {
		case env := <-m.in:
			if env.Payload != nil {
				route(env)
				continue
			}
			// A wake-up stays with the endpoint it was posted to; the slot
			// it left is free.
			select {
			case m.in <- env:
			default:
			}
		default:
			return
		}
	}
}

// Close detaches the route and closes the inbox; later deliveries are
// dropped. Closing twice is harmless.
func (m *Mailbox) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.route = nil
	close(m.in)
}
