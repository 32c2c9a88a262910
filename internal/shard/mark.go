package shard

import (
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
// endpoints: incoming Mark envelopes are routed to the mailbox of their
// shard, and sends through a shard endpoint are wrapped with that shard's
// Mark. Unmarked traffic is delivered to shard 0, so a one-shard plane
// interoperates with unsharded peers. The Router routes at delivery (see the
// transport package comment): it starts no goroutine.
type Router struct {
	ep     transport.Endpoint
	shards int
	subs   []*routerEndpoint
	ctrl   *routerEndpoint
}

// NewRouter attaches a router with shards virtual endpoints to the endpoint.
// The caller must not read ep.Inbox directly afterwards.
func NewRouter(ep transport.Endpoint, shards int) *Router {
	if shards < 1 {
		shards = 1
	}
	r := &Router{
		ep:     ep,
		shards: shards,
		subs:   make([]*routerEndpoint, shards),
	}
	for s := range r.subs {
		r.subs[s] = r.newEndpoint(int32(s))
	}
	r.ctrl = r.newEndpoint(controlShard)
	ep.Route(r.route)
	return r
}

func (r *Router) newEndpoint(shard int32) *routerEndpoint {
	return &routerEndpoint{Mailbox: transport.NewMailbox(r.ep.ID(), routerQueueLen), r: r, shard: shard}
}

// Shards returns the number of shard endpoints.
func (r *Router) Shards() int { return r.shards }

// Endpoint returns shard s's virtual endpoint.
func (r *Router) Endpoint(s int) transport.Endpoint { return r.subs[s] }

// Control returns the node-level control endpoint: its traffic crosses the
// wire marked with the reserved control shard, so it never collides with any
// shard's protocol messages.
func (r *Router) Control() transport.Endpoint { return r.ctrl }

// Close detaches the router and closes every shard's inbox. The underlying
// endpoint stays open for other users.
func (r *Router) Close() {
	r.ep.Route(nil)
	for _, sub := range r.subs {
		sub.Close()
	}
	r.ctrl.Close()
}

// route hands one envelope to its shard's mailbox, which expands a marked
// pack; a mark naming no shard, or wrapping no payload, routes nowhere.
func (r *Router) route(env transport.Envelope) {
	shard := int32(0)
	if mk, ok := env.Payload.(*Mark); ok {
		shard, env.Payload = mk.Shard, mk.Payload
	}
	if env.Payload == nil {
		return
	}
	switch {
	case shard == controlShard:
		r.ctrl.Deliver(env)
	case shard >= 0 && int(shard) < r.shards:
		r.subs[shard].Deliver(env)
	}
}

// routerEndpoint is one shard's virtual endpoint: sends are wrapped with the
// shard's mark, receives come from its mailbox. Closing it stops delivery
// into this shard's inbox; the router and the other shards stay attached.
type routerEndpoint struct {
	*transport.Mailbox
	r     *Router
	shard int32
}

func (e *routerEndpoint) ID() ids.ProcessID { return e.r.ep.ID() }

func (e *routerEndpoint) Send(to ids.ProcessID, payload any) {
	e.r.ep.Send(to, &Mark{Shard: e.shard, Payload: payload})
}

var _ transport.Endpoint = (*routerEndpoint)(nil)
