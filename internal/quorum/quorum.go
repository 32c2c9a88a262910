// Package quorum implements Quorum, the contention-free Abstract instance
// used by Aliph (§5.2): clients send requests directly to all replicas, which
// speculatively execute them and reply in a single round trip (two one-way
// message delays with only 3f+1 replicas). Quorum guarantees progress only
// when there are no server/link failures, no Byzantine clients, and no
// contention; concurrent requests executed in different orders make replica
// histories diverge and the instance aborts through the shared panicking
// subprotocol.
package quorum

import (
	"context"

	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// BatchRequestMessage is the batched REQ message a pipelining client
// multicasts to every replica: several of its own in-flight requests ordered
// by timestamp, covered by a single MAC authenticator over the batch digest
// (Step Q1 amortized over the batch).
type BatchRequestMessage struct {
	Instance core.InstanceID
	Batch    msg.Batch
	// Auth is the client's MAC authenticator over the batch and instance.
	Auth authn.Authenticator
}

// AbstractInstance implements core.InstanceMessage.
func (m *BatchRequestMessage) AbstractInstance() core.InstanceID { return m.Instance }

// Replica implements Step Q2 on one replica for one Abstract instance.
type Replica struct {
	h  *host.Host
	st *host.InstanceState
}

// NewReplica returns a host.ProtocolFactory creating Quorum replicas.
func NewReplica() host.ProtocolFactory {
	return func(h *host.Host, st *host.InstanceState) host.ProtocolReplica {
		return &Replica{h: h, st: st}
	}
}

// Handle implements host.ProtocolReplica.
func (r *Replica) Handle(from ids.ProcessID, m any) {
	switch t := m.(type) {
	case *core.RequestMessage:
		r.onRequest(from, t)
	case *BatchRequestMessage:
		r.onBatchRequest(from, t)
	}
}

// MaxClientBatch bounds the size of a client-side batch a replica accepts:
// one authenticated message must not buy a Byzantine client an unbounded
// logging/execution span on the host event loop.
const MaxClientBatch = 128

// onBatchRequest implements Step Q2 for a client-side batch: verify the
// single batch authenticator, log the whole batch as one history append
// span, speculatively execute it in one loop, and fan the per-request RESP
// messages back to the client as one coalesced envelope.
func (r *Replica) onBatchRequest(from ids.ProcessID, m *BatchRequestMessage) {
	if m.Batch.Len() == 0 || m.Batch.Len() > MaxClientBatch {
		return
	}
	client := m.Batch.Requests[0].Client
	if r.st.Stopped {
		return
	}
	// All requests of a batch belong to the invoking client; a batch mixing
	// clients cannot be covered by one authenticator and is dropped.
	for _, req := range m.Batch.Requests {
		if req.Client != client {
			return
		}
	}
	// Hash each request once: the digests feed the batch authenticator and
	// (for a batch logged as it came) the history.
	digests := m.Batch.Digests()
	if !r.h.VerifyClientAuth(r.st, from, client, m.Auth, msg.DigestOf(digests)) {
		return
	}
	designated := r.h.ID() == r.h.Cluster().Head()
	resps := make([]any, 0, m.Batch.Len())
	fresh, stale := r.st.FilterFreshBatch(m.Batch)
	// The entry gate applies to batched retransmissions too: a request
	// applied in an earlier instance is served from cache, not re-executed.
	if fresh.Len() > 0 {
		kept := make([]msg.Request, 0, len(fresh.Requests))
		for _, req := range fresh.Requests {
			if dup, _, _ := r.h.Retransmission(r.st, req); dup {
				stale = append(stale, req)
				continue
			}
			kept = append(kept, req)
		}
		fresh.Requests = kept
	}
	if len(stale) > 0 {
		// The logged batch is a subset: its digests no longer line up.
		digests = nil
	}
	for _, req := range stale {
		if reply, ok := r.h.CachedReply(req.Client, req.Timestamp); ok {
			resps = append(resps, r.h.BuildResp(r.st, req, reply, designated))
		}
	}
	if fresh.Len() > 0 {
		if _, ok := r.h.LogBatchDigested(r.st, fresh, digests); ok {
			replies := r.h.ExecuteBatch(r.st, fresh)
			built := r.h.BuildResps(r.st, fresh, replies, designated)
			for i := range built {
				resps = append(resps, &built[i])
			}
		}
	}
	r.h.SendBatch(client, resps)
}

// onRequest implements Step Q2: verify the client MAC, log and speculatively
// execute the request, and reply.
func (r *Replica) onRequest(from ids.ProcessID, m *core.RequestMessage) {
	if r.st.Stopped {
		return
	}
	digest := m.Req.Digest()
	if !r.h.VerifyClientAuth(r.st, from, m.Req.Client, m.Auth, digest) {
		return
	}
	if dup, reply, cached := r.h.Retransmission(r.st, m.Req); dup {
		if cached {
			r.h.Send(m.Req.Client, r.h.BuildResp(r.st, m.Req, reply, r.h.ID() == r.h.Cluster().Head()))
		}
		return
	}
	if _, ok := r.h.LogBatchDigested(r.st, msg.BatchOf(m.Req), []authn.Digest{digest}); !ok {
		return
	}
	reply := r.h.Execute(r.st, m.Req)
	resp := r.h.BuildResp(r.st, m.Req, reply, r.h.ID() == r.h.Cluster().Head())
	r.h.Send(m.Req.Client, resp)
}

// Client is the client-side handle of one Quorum instance.
type Client struct {
	env core.ClientEnv
	id  core.InstanceID
}

// NewClient creates a Quorum instance client.
func NewClient(env core.ClientEnv, id core.InstanceID) *Client {
	return &Client{env: env, id: id}
}

// ID implements core.Instance.
func (c *Client) ID() core.InstanceID { return c.id }

// Invoke implements core.Instance: Step Q1 (multicast to all replicas, arm a
// 2Δ timer), Step Q3 (identical to Step Z4), and the panicking mechanism.
func (c *Client) Invoke(ctx context.Context, req msg.Request, init *core.InitHistory) (core.Outcome, error) {
	return core.InvokeSpeculative(ctx, c.env, c.id, req, init, c.env.Cluster.Replicas(), c.env.Timer(2))
}

// InvokeBatch implements core.BatchInstance: it multicasts several of the
// client's in-flight requests as one BatchRequestMessage covered by a single
// authenticator, and runs the speculative commit rule for all of them in one
// receive loop. It is an optimistic fast path: uncommitted requests are
// returned with Committed=false and the caller falls back to per-request
// Invoke (and its panicking machinery).
func (c *Client) InvokeBatch(ctx context.Context, reqs []msg.Request, init *core.InitHistory) ([]core.Outcome, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	batch := msg.BatchOf(reqs...)
	if c.env.Checker != nil {
		for _, req := range reqs {
			c.env.Checker.RecordInvoke(req)
		}
		c.env.Checker.RecordInit(c.id, init)
	}
	authBytes := core.ClientAuthBytes(c.id, batch.Digest())
	auth := c.env.Keys.NewAuthenticator(c.env.ID, c.env.Cluster.Replicas(), authBytes[:])
	m := &BatchRequestMessage{Instance: c.id, Batch: batch, Auth: auth}
	transport.Multicast(c.env.Endpoint, c.env.Cluster.Replicas(), m)

	outs, _, err := core.AwaitBatchSpeculativeCommit(ctx, c.env, c.id, reqs, c.env.Timer(2))
	if err != nil {
		return nil, err
	}
	return outs, nil
}

var _ core.Instance = (*Client)(nil)
var _ core.BatchInstance = (*Client)(nil)
var _ host.ProtocolReplica = (*Replica)(nil)
