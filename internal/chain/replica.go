package chain

import (
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
)

// ReplicaConfig configures the Chain replicas of a composed protocol.
type ReplicaConfig struct {
	// LowLoadAfter enables Aliph's low-load optimization: when a single
	// client has been the only active one for this long, the replica stops
	// the instance (setting core.AbortFlagLowLoad) so the composition can
	// switch back to Quorum through a one-request Backup. Zero disables it.
	LowLoadAfter time.Duration
	// Feedback optionally receives R-Aliph client feedback piggybacked on
	// CHAIN messages.
	Feedback host.FeedbackSink
}

// Replica implements the Chain pipeline steps (C2/C3) at one position of the
// chain order. The head coalesces client requests into batches under the
// host's batch policy; a batch travels down the chain as one BatchMessage
// with one set of replica-hop MACs, and the tail fans per-request replies
// back out to the clients.
type Replica struct {
	h   *host.Host
	st  *host.InstanceState
	cfg ReplicaConfig

	// index is this replica's position in the chain order.
	index int
	// batcher coalesces client requests at the head (Step C2).
	batcher *host.Batcher
	// pendingBatch buffers batches that arrived ahead of the next expected
	// sequence number.
	pendingBatch map[uint64]*BatchMessage

	// low-load tracking.
	activeClient   ids.ProcessID
	lastClientSeen time.Time
	sawAnyRequest  bool
}

// NewReplica returns a host.ProtocolFactory creating Chain replicas.
func NewReplica(cfg ReplicaConfig) host.ProtocolFactory {
	return func(h *host.Host, st *host.InstanceState) host.ProtocolReplica {
		r := &Replica{
			h:            h,
			st:           st,
			cfg:          cfg,
			index:        h.Cluster().Pos(h.ID()),
			pendingBatch: make(map[uint64]*BatchMessage),
		}
		r.batcher = h.NewBatcher(r.orderBatch)
		return r
	}
}

// isHead reports whether this replica is the head of the chain.
func (r *Replica) isHead() bool { return r.index == 0 }

// isTail reports whether this replica is the tail of the chain.
func (r *Replica) isTail() bool { return r.index == r.h.Cluster().N-1 }

// executes reports whether this replica is one of the last f+1 replicas,
// which execute requests and authenticate replies.
func (r *Replica) executes() bool { return r.index >= 2*r.h.Cluster().F }

// Handle implements host.ProtocolReplica. Replicas relay only batches; a
// Message is a client request, accepted at the head and only before a
// position is assigned to it.
func (r *Replica) Handle(from ids.ProcessID, m any) {
	switch t := m.(type) {
	case *Message:
		if r.isHead() && !t.HasSeq {
			r.onClientRequest(from, t)
		}
	case *BatchMessage:
		r.onBatchForwarded(from, t)
	}
}

// onClientRequest implements Step C2 at the head: verify the client MAC and
// hand the request to the batch assembler, which flushes whole batches into
// orderBatch under the size/delay policy.
func (r *Replica) onClientRequest(from ids.ProcessID, m *Message) {
	if r.cfg.Feedback != nil && len(m.Feedback) > 0 {
		r.cfg.Feedback.ClientFeedback(r.h.ID(), m.Req.Client, m.Feedback, []uint64{m.Req.Timestamp})
	}
	if r.st.Stopped || !from.IsClient() || from != m.Req.Client {
		return
	}
	r.h.Ops().CountMACVerify(r.h.ID(), 1)
	if err := r.h.Keys().VerifyChain(m.CA, r.h.ID(), []ids.ProcessID{m.Req.Client}, ClientAuthBytes(r.st.ID, m.Req)); err != nil {
		return
	}
	r.trackLoad(m.Req.Client)
	if r.st.Stopped {
		return
	}
	if !r.st.TimestampFresh(m.Req.Client, m.Req.Timestamp) || r.h.AppliedStale(m.Req.Client, m.Req.Timestamp) {
		// Duplicate (per the instance window, or per the host's applied
		// window for requests committed before this instance's init history
		// reaches): dropped; the client's retry or panic timer recovers it.
		return
	}
	r.batcher.Add(host.BatchItem{Req: m.Req, CA: m.CA, Init: m.Init})
}

// orderBatch implements Step C2 for one flushed batch (head only): assign a
// sequence-number span, log the whole batch as one history append, and send
// it down the chain as a single BatchMessage.
func (r *Replica) orderBatch(items []host.BatchItem) {
	if !r.isHead() || r.st.Stopped {
		return
	}
	fresh, batch, _ := host.FilterFreshItems(r.st, items)
	if batch.Len() == 0 {
		return
	}
	start, ok := r.h.LogBatch(r.st, batch)
	if !ok {
		return
	}
	out := &BatchMessage{Instance: r.st.ID, Batch: batch, Seq: start}
	downstream := r.downstreamReplicas()
	for _, it := range fresh {
		keep := append(append([]ids.ProcessID{}, downstream...), it.Req.Client)
		out.ClientCAs = append(out.ClientCAs, authn.PruneChain(it.CA, keep))
		if out.Init == nil && it.Init != nil {
			out.Init = it.Init
		}
	}
	var replies [][]byte
	if r.executes() {
		replies = r.h.ExecuteBatch(r.st, batch)
		r.fillBatchExecution(out, replies)
	}
	for range batch.Requests {
		r.h.Ops().CountRequest()
	}
	if r.isTail() {
		r.replyBatch(out, replies)
		return
	}
	r.forwardBatch(out, batch.Digest())
}

// onBatchForwarded implements Step C3 for a batch at every non-head position:
// verify the predecessor-set MACs over the batch, log and (for the last f+1
// replicas) execute the whole batch, and forward it (the tail fans replies
// out to the clients).
func (r *Replica) onBatchForwarded(from ids.ProcessID, m *BatchMessage) {
	if r.isHead() || r.st.Stopped {
		return
	}
	pred, hasPred := r.h.Cluster().ChainPredecessor(r.h.ID())
	if !hasPred || from != pred {
		return
	}
	if m.Batch.Len() == 0 || len(m.ClientCAs) != m.Batch.Len() {
		return
	}
	// Compute the batch digest once per hop; it feeds every batch-level MAC
	// verified and generated below.
	bd := m.Batch.Digest()
	if err := r.verifyBatchPredecessors(m, bd); err != nil {
		return
	}
	for _, req := range m.Batch.Requests {
		r.trackLoad(req.Client)
	}
	if r.st.Stopped {
		return
	}
	if m.Seq > r.st.AbsLen() {
		// Bounded buffering: the bound is on buffered *requests*, not map
		// entries, so a Byzantine head cannot grow the reorder buffer
		// without limit; dropped batches surface as loss.
		if r.pendingRequests()+m.Batch.Len() <= maxPendingRequests {
			r.pendingBatch[m.Seq] = m
		}
		return
	}
	if m.Seq < r.st.AbsLen() {
		// Duplicate delivery of an already-logged batch (a TCP retransmission
		// or a recovering predecessor): re-forward it with cached replies
		// instead of dropping, so a client whose original reply was lost
		// commits without going through the panicking machinery. Nothing is
		// logged or executed again.
		r.forwardDuplicateBatch(m, bd)
		return
	}
	r.processBatch(m, bd)
	r.drainPending()
}

// processBatch logs (and for the last f+1 replicas executes) one in-order
// batch and forwards it.
func (r *Replica) processBatch(m *BatchMessage, bd authn.Digest) {
	// A correct head never re-orders a logged request nor repeats one inside
	// a batch, so any stale entry marks Byzantine traffic and the whole
	// batch is dropped (the per-entry ClientCAs/seq alignment would break
	// under partial logging anyway).
	if _, stale := r.st.FilterFreshBatch(m.Batch); len(stale) > 0 {
		return
	}
	if _, ok := r.h.LogBatch(r.st, m.Batch); !ok {
		return
	}
	out := *m
	out.ClientCAs = append([]authn.ChainAuthenticator(nil), m.ClientCAs...)
	var replies [][]byte
	if r.executes() {
		replies = r.h.ExecuteBatch(r.st, m.Batch)
		r.fillBatchExecution(&out, replies)
	}
	if r.isTail() {
		r.replyBatch(&out, replies)
		return
	}
	r.forwardBatch(&out, bd)
}

// forwardDuplicateBatch pushes an already-logged batch down the chain serving
// replies from the per-client cache, so the tail can resend every reply of
// the batch. The chain links are FIFO, so each hop processes the duplicate at
// the same history state and the executing replicas' MACs cover identical
// tail bytes. Best effort: when any reply was already evicted from the cache
// (the client issued a newer request since), the duplicate is dropped and the
// affected clients recover through the panicking machinery as before.
func (r *Replica) forwardDuplicateBatch(m *BatchMessage, bd authn.Digest) {
	out := *m
	out.ClientCAs = append([]authn.ChainAuthenticator(nil), m.ClientCAs...)
	var replies [][]byte
	if r.executes() {
		replies = make([][]byte, m.Batch.Len())
		for i, req := range m.Batch.Requests {
			reply, ok := r.h.CachedReply(req.Client, req.Timestamp)
			if !ok {
				return
			}
			replies[i] = reply
		}
		r.fillBatchExecution(&out, replies)
	}
	if r.isTail() {
		r.replyBatch(&out, replies)
		return
	}
	r.forwardBatch(&out, bd)
}

// fillBatchExecution sets the reply and history fields an executing replica
// is responsible for, and appends this replica's per-request MAC toward each
// client (the only per-request MACs left on the batched path).
func (r *Replica) fillBatchExecution(out *BatchMessage, replies [][]byte) {
	out.ReplyDigests = make([]authn.Digest, len(replies))
	for i, reply := range replies {
		out.ReplyDigests[i] = authn.Hash(reply)
	}
	out.HistoryDigest = r.st.HistoryDigest()
	for i, req := range out.Batch.Requests {
		data := TailAuthBytes(out.Instance, req, out.Seq+uint64(i), out.ReplyDigests[i], out.HistoryDigest)
		out.ClientCAs[i] = r.h.Keys().AppendChainMACs(out.ClientCAs[i], r.h.ID(), []ids.ProcessID{req.Client}, data)
		r.h.Ops().CountMACGen(r.h.ID(), 1)
	}
}

// replyBatch fans a processed batch back out to the clients: one Message
// per request, carrying the full reply and the chain-authenticator
// entries of the last f+1 replicas, so Step C4 at the client is unchanged.
func (r *Replica) replyBatch(out *BatchMessage, replies [][]byte) {
	byClient := make(map[ids.ProcessID][]any, len(out.Batch.Requests))
	for i, req := range out.Batch.Requests {
		reply := &Message{
			Instance:      out.Instance,
			Req:           req,
			Seq:           out.Seq + uint64(i),
			HasSeq:        true,
			ReplyDigest:   out.ReplyDigests[i],
			Reply:         replies[i],
			HistoryDigest: out.HistoryDigest,
			CA:            out.ClientCAs[i],
		}
		if r.h.InstrumentHistories() {
			reply.HistoryDigests = r.st.Digests.Clone()
		}
		byClient[req.Client] = append(byClient[req.Client], reply)
	}
	// A pipelining client's replies cross the wire as one coalesced
	// envelope, as in ZLight's and Quorum's fan-out.
	for client, replies := range byClient {
		r.h.SendBatch(client, replies)
	}
}

// forwardBatch appends this replica's batch-level chain-authenticator MACs
// and sends the batch to the successor. bd is the precomputed batch digest.
func (r *Replica) forwardBatch(out *BatchMessage, bd authn.Digest) {
	successors := r.h.Cluster().ChainSuccessorSet(r.h.ID())
	downstream := r.downstreamReplicas()
	out.CA = authn.PruneChain(out.CA, downstream)
	out.CA = r.h.Keys().AppendChainMACs(out.CA, r.h.ID(), successors, r.batchAuthBytesFor(r.h.ID(), out, bd))
	r.h.Ops().CountMACGen(r.h.ID(), len(successors))
	for i, req := range out.Batch.Requests {
		keep := append(append([]ids.ProcessID{}, downstream...), req.Client)
		out.ClientCAs[i] = authn.PruneChain(out.ClientCAs[i], keep)
	}
	succ, _ := r.h.Cluster().ChainSuccessor(r.h.ID())
	r.h.Send(succ, out)
}

// downstreamReplicas returns the replicas after this one in chain order.
func (r *Replica) downstreamReplicas() []ids.ProcessID {
	var out []ids.ProcessID
	for j := r.index + 1; j < r.h.Cluster().N; j++ {
		out = append(out, r.h.Cluster().AtPos(j))
	}
	return out
}

// batchAuthBytesFor returns the batch-level bytes process p authenticates,
// which depend on p's position in the chain: the first 2f replicas sign the
// sequence span and batch digest, the last f+1 replicas also sign the reply
// and history digests. bd is the precomputed batch digest.
func (r *Replica) batchAuthBytesFor(p ids.ProcessID, m *BatchMessage, bd authn.Digest) []byte {
	if r.h.Cluster().Pos(p) < 2*r.h.Cluster().F {
		return batchOrderBytes(m.Instance, bd, m.Seq)
	}
	return batchTailBytes(m.Instance, bd, m.Seq, m.ReplyDigests, m.HistoryDigest)
}

// verifyBatchPredecessors checks the batch-level MACs from every replica in
// this replica's predecessor set, and (at the first f+1 positions) each
// client's per-request MAC. bd is the precomputed batch digest.
func (r *Replica) verifyBatchPredecessors(m *BatchMessage, bd authn.Digest) error {
	cl := r.h.Cluster()
	if r.index < cl.F+1 {
		for i, req := range m.Batch.Requests {
			r.h.Ops().CountMACVerify(r.h.ID(), 1)
			if err := r.h.Keys().VerifyChain(m.ClientCAs[i], r.h.ID(), []ids.ProcessID{req.Client}, ClientAuthBytes(m.Instance, req)); err != nil {
				return err
			}
		}
	}
	// Predecessors fall into two byte classes (order bytes for the first 2f
	// replicas, tail bytes for the rest); compute each at most once rather
	// than re-hashing the batch per predecessor.
	var orderBytes, tailBytes []byte
	for _, p := range cl.ChainPredecessorSet(r.h.ID()) {
		var data []byte
		if cl.Pos(p) < 2*cl.F {
			if orderBytes == nil {
				orderBytes = batchOrderBytes(m.Instance, bd, m.Seq)
			}
			data = orderBytes
		} else {
			if tailBytes == nil {
				tailBytes = batchTailBytes(m.Instance, bd, m.Seq, m.ReplyDigests, m.HistoryDigest)
			}
			data = tailBytes
		}
		r.h.Ops().CountMACVerify(r.h.ID(), 1)
		if err := r.h.Keys().VerifyChain(m.CA, r.h.ID(), []ids.ProcessID{p}, data); err != nil {
			return err
		}
	}
	return nil
}

// maxPendingRequests bounds the total requests buffered out of order per
// instance.
const maxPendingRequests = 1024

// pendingRequests returns the number of requests currently buffered out of
// order; the buffer is small (bounded by maxPendingRequests), so summing on
// demand is cheap.
func (r *Replica) pendingRequests() int {
	n := 0
	for _, m := range r.pendingBatch {
		n += m.Batch.Len()
	}
	return n
}

func (r *Replica) drainPending() {
	for !r.st.Stopped {
		// Evict spans overtaken by the history (they can never match the
		// exact next position again), so stale entries cannot exhaust the
		// cap.
		for seq := range r.pendingBatch {
			if seq < r.st.AbsLen() {
				delete(r.pendingBatch, seq)
			}
		}
		next, ok := r.pendingBatch[r.st.AbsLen()]
		if !ok {
			return
		}
		delete(r.pendingBatch, next.Seq)
		r.processBatch(next, next.Batch.Digest())
	}
}

// trackLoad implements the low-load detection used by Aliph: when only one
// client has been active for LowLoadAfter, the replica stops the instance
// with the low-load abort flag so the composition can return to Quorum.
func (r *Replica) trackLoad(client ids.ProcessID) {
	if r.cfg.LowLoadAfter <= 0 {
		return
	}
	now := time.Now()
	if !r.sawAnyRequest || client != r.activeClient {
		r.activeClient = client
		r.lastClientSeen = now
		r.sawAnyRequest = true
		return
	}
	if now.Sub(r.lastClientSeen) >= r.cfg.LowLoadAfter {
		r.st.AbortFlags |= core.AbortFlagLowLoad
		r.h.StopInstance(r.st)
	}
}

var _ host.ProtocolReplica = (*Replica)(nil)
