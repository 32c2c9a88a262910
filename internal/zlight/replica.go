package zlight

import (
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// Replica implements the ZLight common-case steps on one replica for one
// Abstract instance. The shared panicking, checkpointing, initialization, and
// batch-assembly machinery lives in the host package.
type Replica struct {
	h  *host.Host
	st *host.InstanceState
	// primary is the fixed primary of this instance (the first replica).
	primary ids.ProcessID
	// batcher coalesces client requests at the primary (Step Z2).
	batcher *host.Batcher
	// clientMACFailed is set when a client authenticator entry fails to
	// verify; the replica then stops executing Step Z3 in this instance
	// (per the specification of Step Z3).
	clientMACFailed bool
	// pending buffers ORDER messages received ahead of the next expected
	// sequence number (reordered delivery) until the gap is filled.
	pending host.SeqBuffer[*OrderMessage]
	// lastOrder caches, per client, the last ORDER that contained a request
	// of that client so client retransmissions re-trigger replies from the
	// backups.
	lastOrder map[ids.ProcessID]*OrderMessage
}

// NewReplica returns a host.ProtocolFactory creating ZLight replicas.
func NewReplica() host.ProtocolFactory {
	return func(h *host.Host, st *host.InstanceState) host.ProtocolReplica {
		r := &Replica{
			h:         h,
			st:        st,
			primary:   h.Cluster().Head(),
			lastOrder: make(map[ids.ProcessID]*OrderMessage),
		}
		r.batcher = h.NewBatcher(r.orderBatch)
		return r
	}
}

// IsPrimary reports whether this replica is the instance's primary.
func (r *Replica) IsPrimary() bool { return r.h.ID() == r.primary }

// Handle implements host.ProtocolReplica.
func (r *Replica) Handle(from ids.ProcessID, m any) {
	switch t := m.(type) {
	case *core.RequestMessage:
		r.onRequest(from, t)
	case *OrderMessage:
		r.onOrder(from, t)
	}
}

// onRequest implements Step Z1→Z2 at the primary: verify the client's
// authenticator entry and hand the request to the batch assembler; the
// assembler flushes a whole batch into orderBatch under the size/delay
// policy (immediately when batching is disabled).
func (r *Replica) onRequest(from ids.ProcessID, m *core.RequestMessage) {
	if !r.IsPrimary() || r.st.Stopped {
		return
	}
	digest := m.Req.Digest()
	if !r.h.VerifyClientAuth(r.st, from, m.Req.Client, m.Auth, digest) {
		return
	}
	if dup, reply, cached := r.h.Retransmission(r.st, m.Req); dup {
		// Resend the cached reply and re-order so the backups reply again as
		// well — but only when the cached ORDER actually covers this
		// timestamp, so a stale retransmission cannot re-multicast a whole
		// unrelated batch.
		if cached {
			r.h.Send(m.Req.Client, r.h.BuildResp(r.st, m.Req, reply, true))
			if last := r.lastOrder[m.Req.Client]; last != nil && batchContains(last.Batch, m.Req.Client, m.Req.Timestamp) {
				r.multicastOrder(last, last.Batch.Digest())
			}
		}
		return
	}
	r.batcher.Add(host.BatchItem{Req: m.Req, Digest: digest, Auth: m.Auth})
}

// orderBatch implements Step Z2 for one flushed batch (primary only): assign
// a sequence-number span, log the whole batch as one history append, order it
// to the other replicas with a single primary MAC, and speculatively execute
// the batch, fanning one RESP per request back to the clients.
func (r *Replica) orderBatch(items []host.BatchItem) {
	if !r.IsPrimary() || r.st.Stopped {
		return
	}
	// Re-filter staleness: a request may have been retransmitted and ordered
	// while this one waited in the assembler.
	fresh, batch, stale := host.FilterFreshItems(r.st, items)
	for _, it := range stale {
		if reply, ok := r.h.CachedReply(it.Req.Client, it.Req.Timestamp); ok {
			r.h.Send(it.Req.Client, r.h.BuildResp(r.st, it.Req, reply, true))
		}
	}
	if batch.Len() == 0 {
		return
	}
	// onRequest hashed every request to verify its authenticator; logging and
	// the ORDER's batch MAC reuse those digests.
	digests := make([]authn.Digest, len(fresh))
	for i := range fresh {
		digests[i] = fresh[i].Digest
	}
	start, ok := r.h.LogBatchDigested(r.st, batch, digests)
	if !ok {
		return
	}
	order := &OrderMessage{Instance: r.st.ID, Batch: batch, Seq: start, Auths: make([]authn.Authenticator, len(fresh))}
	for i, it := range fresh {
		order.Auths[i] = it.Auth
		r.lastOrder[it.Req.Client] = order
	}
	r.multicastOrder(order, msg.DigestOf(digests))
	// The primary speculatively executes and replies like any replica
	// (Step Z3); it is the designated replica sending the full reply.
	replies := r.h.ExecuteBatch(r.st, batch)
	r.fanOutResps(batch, replies, true)
}

// fanOutResps sends one RESP per request of a batch, coalescing the RESPs of
// each client into a single wire envelope (pipelining clients have several
// requests per batch). Null operations have no client and get no reply.
func (r *Replica) fanOutResps(batch msg.Batch, replies [][]byte, designated bool) {
	// The assembler sorts a batch by (client, timestamp), so one client's
	// requests are adjacent: each run becomes one envelope. (Runs a Byzantine
	// primary splits up merely cost extra envelopes.)
	built := r.h.BuildResps(r.st, batch, replies, designated)
	resps := make([]any, 0, len(batch.Requests))
	for i, req := range batch.Requests {
		if req.Client != ids.NullOp {
			resps = append(resps, &built[i])
		}
		endOfRun := i == len(batch.Requests)-1 || batch.Requests[i+1].Client != req.Client
		if endOfRun && len(resps) > 0 {
			r.h.SendBatch(req.Client, resps)
			resps = resps[len(resps):]
		}
	}
}

// OrderNullOp implements host.NullOpOrderer (primary only): it orders one
// Mencius-style null operation — a request from the reserved ids.NullOp
// identity with an empty command and the next history position as its
// timestamp — so an idle shard's history advances and the sharded plane's
// cross-shard merge rounds complete without waiting on it. Real buffered
// traffic takes precedence; backups verify no client authenticator for it
// (there is no client), execute nothing, and reply to nobody.
func (r *Replica) OrderNullOp() bool {
	if !r.IsPrimary() || r.st.Stopped || !r.st.Initialized || r.batcher.Pending() > 0 {
		return false
	}
	ts := r.st.AbsLen() + 1
	if !r.st.TimestampFresh(ids.NullOp, ts) {
		return false
	}
	req := msg.Request{Client: ids.NullOp, Timestamp: ts}
	batch := msg.BatchOf(req)
	start, ok := r.h.LogBatch(r.st, batch)
	if !ok {
		return false
	}
	order := &OrderMessage{
		Instance: r.st.ID,
		Batch:    batch,
		Seq:      start,
		Auths:    []authn.Authenticator{{Sender: ids.NullOp}},
	}
	r.multicastOrder(order, batch.Digest())
	r.h.ExecuteBatch(r.st, batch)
	return true
}

// multicastOrder sends an ORDER to every backup, re-MACing the batch (whose
// digest the caller holds) for each destination: one MAC per destination per
// batch.
func (r *Replica) multicastOrder(m *OrderMessage, batchDigest authn.Digest) {
	data := OrderBytes(r.st.ID, batchDigest, m.Seq)
	for _, other := range r.h.OtherReplicas() {
		order := *m
		order.PrimaryMAC = r.h.MACFor(other, data[:])
		r.h.Send(other, &order)
	}
}

// onOrder implements Step Z3 (backup replicas): verify the primary's batch
// MAC and every client's authenticator entry, check the sequence span, then
// log, execute, and reply per request.
func (r *Replica) onOrder(from ids.ProcessID, m *OrderMessage) {
	if r.st.Stopped || r.clientMACFailed {
		return
	}
	if from != r.primary || m.Batch.Len() == 0 || len(m.Auths) != m.Batch.Len() {
		return
	}
	// Hash each request once: the digests feed the batch MAC, the client
	// authenticators, and (for a batch logged as it came) the history.
	digests := m.Batch.Digests()
	orderBytes := OrderBytes(r.st.ID, msg.DigestOf(digests), m.Seq)
	if err := r.h.VerifyMACFrom(r.primary, orderBytes[:], m.PrimaryMAC); err != nil {
		return
	}
	if m.Seq+uint64(m.Batch.Len()) <= r.st.AbsLen() {
		// Already processed (duplicate or retransmission): resend cached
		// replies without re-verifying every client authenticator.
		for _, req := range m.Batch.Requests {
			if reply, ok := r.h.CachedReply(req.Client, req.Timestamp); ok {
				r.h.Send(req.Client, r.h.BuildResp(r.st, req, reply, false))
			}
		}
		return
	}
	for i, req := range m.Batch.Requests {
		// Null operations carry no client authenticator: there is no client.
		// Only the empty command is acceptable under the null identity, so a
		// Byzantine primary cannot smuggle an unauthenticated real command.
		if req.Client == ids.NullOp {
			if len(req.Command) != 0 || m.Auths[i].Sender != ids.NullOp {
				r.clientMACFailed = true
				return
			}
			continue
		}
		if !r.h.VerifyClientAuth(r.st, from, req.Client, m.Auths[i], digests[i]) {
			// Step Z3: a failed client MAC stops this replica from executing
			// Step Z3 for the rest of the instance; the client will
			// eventually panic and the instance will switch.
			r.clientMACFailed = true
			return
		}
	}
	if m.Seq > r.st.AbsLen() {
		// Reordered delivery: buffer until the gap is filled.
		r.pending.Add(m.Seq, m.Batch.Len(), m)
		return
	}
	r.process(m, digests)
	for next, ok := r.pending.Next(r.st); ok; next, ok = r.pending.Next(r.st) {
		r.process(next, nil)
	}
}

// batchContains reports whether the batch holds a request with the given
// client and timestamp.
func batchContains(b msg.Batch, client ids.ProcessID, ts uint64) bool {
	for _, req := range b.Requests {
		if req.Client == client && req.Timestamp == ts {
			return true
		}
	}
	return false
}

// process logs, speculatively executes, and replies to one in-order ORDER
// batch; digests, when non-nil, are m.Batch.Digests().
func (r *Replica) process(m *OrderMessage, digests []authn.Digest) {
	batch, stale := r.st.FilterFreshBatch(m.Batch)
	if len(stale) > 0 {
		// The logged batch is a subset: its digests no longer line up.
		digests = nil
	}
	for _, req := range stale {
		if reply, ok := r.h.CachedReply(req.Client, req.Timestamp); ok {
			r.h.Send(req.Client, r.h.BuildResp(r.st, req, reply, false))
		}
	}
	if batch.Len() == 0 {
		return
	}
	if _, ok := r.h.LogBatchDigested(r.st, batch, digests); !ok {
		return
	}
	replies := r.h.ExecuteBatch(r.st, batch)
	r.fanOutResps(batch, replies, false)
}
