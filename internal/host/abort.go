package host

import (
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// handlePanic implements Steps P2/P2+ of the panicking subprotocol: the
// replica stops executing requests of the instance and returns a signed
// ABORT message carrying its history report. A replica that never
// initialized the instance does so first from the InitMessage the client
// sends ahead of each PANIC round (Step P2+); a PANIC for an instance it
// never activated is dropped. The ABORT goes to from, the PANIC's sender.
func (h *Host) handlePanic(from ids.ProcessID, m *core.PanicMessage) {
	st := h.instances[m.Instance]
	if st == nil || !st.Initialized {
		return
	}
	if proto, ok := st.proto.(PanicResistant); ok && !proto.StopOnPanic() {
		// Instances with strong progress (Backup) ignore panics until they
		// decide to stop on their own; once stopped they answer with their
		// signed abort.
		if st.Stopped {
			signed := h.signedAbort(st)
			h.Send(from, &core.AbortReply{Instance: st.ID, Timestamp: m.Timestamp, Signed: *signed})
		}
		return
	}
	if !st.Stopped {
		st.Stopped = true
		h.met.aborts.Inc()
		h.cfg.Flight.Record("abort", h.cfg.Shard,
			"instance %d stopped on PANIC from %v (t=%d)", st.ID, from, m.Timestamp)
	}
	signed := h.signedAbort(st)
	h.Send(from, &core.AbortReply{Instance: st.ID, Timestamp: m.Timestamp, Signed: *signed})
}

// PanicResistant is implemented by protocol replicas whose progress property
// does not allow clients to stop them through PANIC messages (Backup commits
// exactly k requests regardless of panics).
type PanicResistant interface {
	StopOnPanic() bool
}

// signedAbort builds (or returns the cached) signed ABORT message of the
// instance. The report contains the replica's last stable checkpoint and the
// digests of the requests logged after it.
func (h *Host) signedAbort(st *InstanceState) *core.SignedAbort {
	if st.cachedAbort != nil {
		return st.cachedAbort
	}
	report := history.ReplicaReport{
		CheckpointSeq:    st.Checkpoint.StableSeq(),
		CheckpointDigest: st.Checkpoint.StableDigest(),
	}
	if report.CheckpointSeq < st.BaseSeq {
		report.CheckpointSeq = st.BaseSeq
		report.CheckpointDigest = st.BaseDigest
	}
	// Suffix holds the digests from the reported checkpoint onward. GC only
	// ever trims below the stable checkpoint, so the materialized history
	// always covers the reported suffix.
	start := report.CheckpointSeq - st.BaseSeq
	if idx := start - st.Trimmed(); start >= st.Trimmed() && idx <= uint64(len(st.Digests)) {
		report.Suffix = st.Digests[idx:].Clone()
	}
	abort := core.AbortMessage{
		Instance: st.ID,
		Replica:  h.id,
		Next:     st.ID.Next(),
		Flags:    st.AbortFlags,
		Report:   report,
	}
	sig := h.keys.Sign(h.id, abort.SignedBytes())
	st.cachedAbort = &core.SignedAbort{Abort: abort, Sig: sig}
	return st.cachedAbort
}

// StopInstance marks an instance stopped; exposed for protocols that stop on
// their own initiative (Backup after k requests, Chain's low-load abort).
func (h *Host) StopInstance(st *InstanceState) {
	if !st.Stopped {
		st.Stopped = true
		h.met.aborts.Inc()
		h.cfg.Flight.Record("abort", h.cfg.Shard, "instance %d stopped by replica", st.ID)
	}
}

// SignedAbortFor exposes the replica's signed abort message for protocols
// that deliver abort indications through their own messages (Backup).
func (h *Host) SignedAbortFor(st *InstanceState) core.SignedAbort { return *h.signedAbort(st) }

// maybeCheckpoint runs the LCS when the local history crossed a checkpoint
// boundary: the replica broadcasts the digest of its state at the boundary.
func (h *Host) maybeCheckpoint(st *InstanceState) {
	cc, ok := st.Checkpoint.ShouldCheckpoint(st.AbsLen())
	if !ok {
		return
	}
	digest := h.checkpointDigest(st, cc)
	m := &core.CheckpointMessage{AbstractID: st.ID, Counter: cc, StateDigest: digest}
	// Record our own contribution, then broadcast to the other replicas.
	if st.Checkpoint.Record(h.id, cc, digest) {
		h.checkpointStable(st)
	}
	h.Multicast(h.OtherReplicas(), m)
}

// checkpointStable reports st's newly stable checkpoint to the observer and
// garbage-collects below it.
func (h *Host) checkpointStable(st *InstanceState) {
	if h.observer != nil {
		h.observer.CheckpointStable(st.ID, st.Checkpoint.StableSeq())
	}
	h.onStableCheckpoint(st)
}

// checkpointDigest computes the digest of the replica state after cc*CHK
// requests: the digest of the history prefix up to that position (folded with
// the base digest when present). Deterministic applications make this
// equivalent to a state digest.
func (h *Host) checkpointDigest(st *InstanceState, cc uint64) authn.Digest {
	pos := cc * uint64(st.Checkpoint.Interval)
	if pos < st.BaseSeq {
		return st.BaseDigest
	}
	idx := pos - st.BaseSeq
	prefix := st.PrefixDigest(idx)
	if st.BaseSeq == 0 {
		return prefix
	}
	return authn.HashAll(st.BaseDigest[:], prefix[:])
}

// handleCheckpoint records replica from's CHECKPOINT vote.
func (h *Host) handleCheckpoint(from ids.ProcessID, m *core.CheckpointMessage) {
	st := h.instances[m.AbstractID]
	if st == nil || !st.Initialized {
		return
	}
	if st.Checkpoint.Record(from, m.Counter, m.StateDigest) {
		h.checkpointStable(st)
	}
}

// handleFetchRequest returns to replica from the request bodies this replica
// knows for the requested digests (inter-replica state transfer of missing
// requests, §4.4).
func (h *Host) handleFetchRequest(from ids.ProcessID, m *core.FetchRequest) {
	var out []msg.Request
	for _, d := range m.Digests {
		if r, ok := h.RequestByDigest(d); ok {
			out = append(out, r.Clone())
		}
	}
	if len(out) == 0 {
		return
	}
	h.Send(from, &core.FetchResponse{Instance: m.Instance, Requests: out})
}

// handleFetchResponse hands the fetched request bodies to the named
// instance's pending initialization (completeInit).
func (h *Host) handleFetchResponse(m *core.FetchResponse) {
	if st := h.instances[m.Instance]; st != nil {
		h.completeInit(st, m.Requests)
	}
}
