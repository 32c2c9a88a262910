package shard

import (
	"sync"

	"abstractbft/internal/ids"
	"abstractbft/internal/transport"
)

// Mark is the wire wrapper of the sharded plane: every message of shard s
// crosses the network as Mark{Shard: s, Payload: m}, so one physical
// endpoint per process carries the traffic of all S shards and the receiving
// side demultiplexes by shard instead of by message type.
type Mark struct {
	Shard   int32
	Payload any
}

// routerQueueLen is the per-shard inbox length; a full shard inbox drops
// messages, preserving the fair-loss model exactly like a full endpoint
// inbox.
const routerQueueLen = 8192

// controlShard is the reserved mark of the node-level control channel: the
// recovery plane's merged-boundary collection (MergedQuery/MergedState)
// shares the one physical endpoint with the S shards without belonging to
// any of them.
const controlShard int32 = -1

// Router demultiplexes one process's endpoint into S per-shard virtual
// endpoints: incoming Mark envelopes are routed to the inbox of their shard
// (write-coalesced Packed payloads are expanded first), and sends through a
// shard endpoint are wrapped with that shard's Mark. Unmarked traffic is
// delivered to shard 0, so a one-shard plane interoperates with unsharded
// peers.
type Router struct {
	ep     transport.Endpoint
	shards int
	subs   []*routerEndpoint
	ctrl   *routerEndpoint

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewRouter starts routing the endpoint's inbox across shards virtual
// endpoints. The caller must not read ep.Inbox directly afterwards.
func NewRouter(ep transport.Endpoint, shards int) *Router {
	if shards < 1 {
		shards = 1
	}
	r := &Router{
		ep:     ep,
		shards: shards,
		subs:   make([]*routerEndpoint, shards),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for s := range r.subs {
		r.subs[s] = &routerEndpoint{r: r, shard: int32(s), in: make(chan transport.Envelope, routerQueueLen)}
	}
	r.ctrl = &routerEndpoint{r: r, shard: controlShard, in: make(chan transport.Envelope, routerQueueLen)}
	go r.run()
	return r
}

// Shards returns the number of shard endpoints.
func (r *Router) Shards() int { return r.shards }

// Endpoint returns shard s's virtual endpoint.
func (r *Router) Endpoint(s int) transport.Endpoint { return r.subs[s] }

// Control returns the node-level control endpoint: its traffic crosses the
// wire marked with the reserved control shard, so it never collides with any
// shard's protocol messages.
func (r *Router) Control() transport.Endpoint { return r.ctrl }

// Close detaches the router: the fan-out goroutine exits and every shard
// inbox is closed. The underlying endpoint stays open for other users.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

func (r *Router) run() {
	defer close(r.done)
	defer func() {
		for _, sub := range r.subs {
			sub.closeInbox()
		}
		r.ctrl.closeInbox()
	}()
	for {
		select {
		case env, ok := <-r.ep.Inbox():
			if !ok {
				return
			}
			shard := int32(0)
			payload := env.Payload
			if mk, ok := payload.(*Mark); ok {
				shard = mk.Shard
				payload = mk.Payload
			}
			var sub *routerEndpoint
			switch {
			case shard == controlShard:
				sub = r.ctrl
			case shard >= 0 && int(shard) < r.shards:
				sub = r.subs[shard]
			default:
				continue
			}
			// Expand write-coalesced packs so shard inboxes only ever see
			// protocol payloads (the mark wraps the pack as a whole).
			if p, ok := payload.(*transport.Packed); ok {
				for _, inner := range p.Payloads {
					sub.deliver(transport.Envelope{From: env.From, To: env.To, Payload: inner})
				}
				continue
			}
			sub.deliver(transport.Envelope{From: env.From, To: env.To, Payload: payload})
		case <-r.stop:
			return
		}
	}
}

// routerEndpoint is one shard's virtual endpoint: sends are wrapped with the
// shard's mark, receives come from the router's per-shard inbox.
type routerEndpoint struct {
	r     *Router
	shard int32

	mu     sync.Mutex
	in     chan transport.Envelope
	closed bool
}

func (e *routerEndpoint) ID() ids.ProcessID { return e.r.ep.ID() }

func (e *routerEndpoint) Send(to ids.ProcessID, payload any) {
	e.r.ep.Send(to, &Mark{Shard: e.shard, Payload: payload})
}

func (e *routerEndpoint) Inbox() <-chan transport.Envelope { return e.in }

// Close stops delivery into this shard's inbox; the router and the other
// shards stay attached.
func (e *routerEndpoint) Close() { e.closeInbox() }

func (e *routerEndpoint) deliver(env transport.Envelope) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	select {
	case e.in <- env:
	default:
		// Shard inbox full: drop (fair-loss links).
	}
}

func (e *routerEndpoint) closeInbox() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	close(e.in)
}

var _ transport.Endpoint = (*routerEndpoint)(nil)
