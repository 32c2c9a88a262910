package host

import (
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/statesync"
)

// This file wires the checkpoint state-transfer and recovery plane
// (internal/statesync) into the replica host:
//
//   - applyRequest captures the boundary state whenever the applied sequence
//     crosses a checkpoint boundary (maybeSnapshot); it is serialized and
//     digested when a FETCH-STATE first reads the snapshot out;
//   - a checkpoint becoming stable garbage-collects history storage and
//     request bodies below it (onStableCheckpoint), bounding memory;
//   - FETCH-STATE requests are answered with the snapshot plus the applied
//     history suffix (handleFetchState);
//   - a lagging or restarted replica runs one state transfer at a time
//     (startStateSync / handleState), accepting a snapshot only under the
//     collector's f+1 digest-agreement rule, then adopting it
//     (adoptSyncedState);
//   - install makes a snapshot the applied state: an adopted transfer's,
//     or a retained boundary's on a speculative rollback (rollBack).

// syncState is one in-flight state transfer.
type syncState struct {
	// inst is the instance the transfer was started for (the suffix is
	// installed into its state when the replica's own history is behind).
	inst core.InstanceID
	// seq pins the accepted snapshot to boundaries at or below it; 0 asks
	// for the peers' last stable checkpoint.
	seq uint64
	col *statesync.Collector
	// ticksSinceAsk drives periodic re-multicast of the FETCH-STATE until
	// enough peers answered.
	ticksSinceAsk int
	// payloadIdx indexes OtherReplicas for the designated payload shipper of
	// the digest-first handshake; it rotates on every retry and immediately
	// when f+1 digests agree but the payload is missing or fails its hash.
	payloadIdx int
	// sawDesignated records that the currently designated peer has answered
	// this designation round: once it has, an agreed-but-unsupplied payload
	// can only mean the peer is behind or lying, so the fetcher re-asks at
	// once instead of waiting out the retry timer (regardless of whether
	// the designated response or the f+1th digest vote arrived last).
	sawDesignated bool
	// discard marks a transfer replacing a diverged applied state (rollBack):
	// execution waits for it, and its snapshot is installed wherever it lies.
	discard bool
}

// syncRetryTicks is how many protocol ticks pass between FETCH-STATE
// retransmissions of an unfinished transfer.
const syncRetryTicks = 10

// checkpointEvery returns the effective checkpoint interval.
func (h *Host) checkpointEvery() uint64 {
	if iv := h.cfg.CheckpointInterval; iv > 0 {
		return uint64(iv)
	}
	return history.DefaultCheckpointInterval
}

// maybeSnapshot captures the replica state when the applied sequence sits on
// a checkpoint boundary. The snapshot records the applied digest chain fold
// as its history digest, so two replicas that executed the same prefix
// produce snapshots agreeing on (Seq, HistDigest, AppDigest) — the identity
// the transfer protocol requires f+1 matching votes on.
//
// Capture runs in the host loop once per interval on every replica, and in
// almost every interval nobody ever asks for the result, so it is split in
// two. Here, one pass records what the boundary state is without copying it:
// the application as a frozen view (app.Application.Freeze, constant cost
// whatever the application holds), the per-client windows, and the reply
// rings as read-only views of the rings' own storage (replyRing.capture).
// Serializing the application and digesting the payload — the canonical
// window and ring encodings and a hash of the lot — is left to the snapshot
// store, which does both when a snapshot is first read out; only
// handleFetchState does that (a lagging or restarted peer, or a recovering
// shard, asking for state).
func (h *Host) maybeSnapshot() {
	if h.appliedSeq == 0 || h.appliedSeq%h.checkpointEvery() != 0 {
		return
	}
	if h.cfg.RetainFloor != nil {
		h.snaps.SetFloor(h.cfg.RetainFloor())
	}
	// The snapshot carries the per-client timestamp windows of the applied
	// prefix (under the agreed payload digest): a restarted replica restores
	// them so a client retransmitting a request from below the adopted
	// boundary cannot get it re-executed.
	windows := make([]statesync.ClientWindow, 0, len(h.appliedWindows))
	for c, w := range h.appliedWindows {
		windows = append(windows, statesync.ClientWindow{Client: c, High: w.high, Mask: w.mask})
	}
	// The per-client reply rings ride along (deterministic contents of the
	// applied prefix, digest-covered like the windows): a restarted replica
	// must serve retransmissions of pre-snapshot requests from cache like
	// its live peers, or it starves the all-replica commit rule.
	rings := make([]statesync.ClientRing, 0, len(h.lastReply))
	for c, ring := range h.lastReply {
		if ts, replies := ring.capture(); len(ts) > 0 {
			rings = append(rings, statesync.ClientRing{Client: c, Timestamps: ts, Replies: replies})
		}
	}
	h.snaps.Add(statesync.Snapshot{
		Seq:        h.appliedSeq,
		HistDigest: h.appliedAcc,
		Frozen:     h.application.Freeze(),
		Windows:    windows,
		Rings:      rings,
	})
	h.met.checkpoints.Inc()
	h.cfg.Flight.Record("checkpoint", h.cfg.Shard, "snapshot at seq %d", h.appliedSeq)
	// A checkpoint can stabilize before the application executes up to it
	// (logging runs ahead of execution within a batch): garbage collection
	// deferred then runs now that the application crossed the boundary.
	h.onStableCheckpoint(h.instances[h.active])
}

// onStableCheckpoint garbage-collects replica state below the trim point
// (trimPoint) once a checkpoint is stable: the active instance's materialized
// digest prefix, the host's applied digest prefix, the request bodies stamped
// below it, and older snapshots. The digest chains are left folds, so
// trimming storage changes no observable digest. The instances superseded
// since the last collection are released whole, each once.
func (h *Host) onStableCheckpoint(st *InstanceState) {
	if h.cfg.InstrumentHistories || st.ID != h.active {
		return
	}
	s, ok := h.trimPoint(st)
	if !ok {
		return
	}
	digests := st.TrimTo(s)
	applied := 0
	if s > h.appliedTrim {
		applied = int(min(s-h.appliedTrim, uint64(len(h.appliedDigs))))
		trimFront(&h.appliedDigs, &h.appliedSpare, applied)
		h.appliedTrim += uint64(applied)
	}
	// Superseded instances would otherwise pin their whole pre-switch
	// history for the life of the replica. Freeze each one's signed abort
	// first — late panickers still get the full report, whose suffix the
	// cached abort holds its own copy of — then release the storage entirely.
	// The bodies they name carry their own stamps. One that never finished
	// its initialization never will (completeInit), and answers no PANIC.
	if h.released < h.active {
		for id, inst := range h.instances {
			if id >= h.released && id < h.active && inst.Initialized {
				h.signedAbort(inst)
				digests += inst.TrimTo(inst.AbsLen())
			}
		}
		h.released = h.active
	}
	bodies := h.releaseBodies(s)
	h.snaps.PruneBelow(s)
	if digests+applied+bodies == 0 {
		return
	}
	h.met.gcRuns.Inc()
	h.met.stableSeq.Set(int64(s))
	h.met.gcBodies.Add(uint64(bodies))
	h.cfg.Flight.Record("gc", h.cfg.Shard,
		"trimmed below seq %d (%d instance digests, %d applied digests, %d bodies)",
		s, digests, applied, bodies)
}

// trimPoint returns the one position below which the active instance st lets
// the replica drop storage: the stable checkpoint, lowered to the sharded
// plane's merged-mirror floor (RetainFloor) and to the checkpoint a frozen
// abort of st reports from — that report's suffix feeds the next instance's
// init history, so every replica must keep its bodies. The result is
// quantized down to a retained snapshot boundary, so a FETCH-STATE pinned at
// or above it is always answerable with a snapshot plus a complete suffix.
// It reports false while there is no such boundary above 0 or the
// application has not executed up to it (bodies missing below an adopted base
// checkpoint): storage is then kept, and the next stable checkpoint retries.
func (h *Host) trimPoint(st *InstanceState) (uint64, bool) {
	s := st.Checkpoint.StableSeq()
	if h.cfg.RetainFloor != nil {
		s = min(s, h.cfg.RetainFloor())
	}
	if st.cachedAbort != nil {
		s = min(s, st.cachedAbort.Abort.Report.CheckpointSeq)
	}
	s, ok := h.snaps.BoundaryAtOrBelow(s)
	if !ok || s == 0 || h.appliedSeq < s {
		return 0, false
	}
	return s, true
}

// releaseBodies deletes the request bodies whose stamp is below s and returns
// how many it deleted. It pops stamps below s from the front of the queue;
// a body stored again at a higher position since keeps its newer stamp and
// stays. Stamps are queued almost in position order, so the first one at or
// above s ends the pass; what sits behind it goes at a later trim point.
func (h *Host) releaseBodies(s uint64) int {
	before := len(h.requestStore)
	k := 0
	for ; k < len(h.stamps) && h.stamps[k].pos < s; k++ {
		if d := h.stamps[k].d; h.requestStore[d].pos < s {
			delete(h.requestStore, d)
		}
	}
	trimFront(&h.stamps, &h.stampSpare, k)
	return before - len(h.requestStore)
}

// handleFetchState answers a peer's FETCH-STATE: the snapshot the request
// selects plus the applied history suffix (digests and known bodies) beyond
// it (the boundary at 0 goes as the zero snapshot). A replica that
// garbage-collected past the requested boundary cannot serve the suffix and
// stays silent; the fetcher's f+1 rule tolerates that. The STATE goes to
// from, the fetching replica.
func (h *Host) handleFetchState(from ids.ProcessID, m *statesync.FetchState) {
	inst := m.Instance
	if inst == 0 {
		inst = h.active
	}
	st := h.instances[inst]
	if st == nil || !st.Initialized {
		return
	}
	resp := &statesync.State{Instance: inst, BodiesFrom: m.BodiesFrom}
	seq := m.Seq
	if seq == 0 {
		seq = st.Checkpoint.StableSeq()
	}
	suffixFrom, _ := h.snaps.BoundaryAtOrBelow(seq)
	if suffixFrom > 0 {
		resp.Snap, _ = h.snaps.At(suffixFrom)
	}
	if suffixFrom < h.appliedTrim {
		return
	}
	// Digest-first handshake: only the designated replica ships the snapshot
	// payload (serialized application state + timestamp windows); everyone
	// else vouches for its identity with digests alone. Suffix bodies are
	// bounded by the uncheckpointed backlog — small compared to the state —
	// and still come from everyone, so body completeness keeps its old f+1
	// redundancy.
	if m.BodiesFrom != h.id {
		resp.Snap = resp.Snap.StripPayload()
	}
	for p := suffixFrom; p < h.appliedSeq; p++ {
		d := h.appliedDigs[p-h.appliedTrim]
		resp.SuffixDigests = append(resp.SuffixDigests, d)
		if r, ok := h.RequestByDigest(d); ok {
			resp.SuffixRequests = append(resp.SuffixRequests, r.Clone())
		}
	}
	h.met.ssServed.Inc()
	h.met.ssBytesOut.Add(uint64(len(resp.Snap.AppState)))
	h.Send(from, resp)
}

// startStateSync begins (or retargets) the host's state transfer. Callers
// hold the host lock.
func (h *Host) startStateSync(inst core.InstanceID, seq uint64) {
	if h.sync != nil && h.sync.inst == inst && h.sync.seq == seq {
		return
	}
	col := statesync.NewCollector(h.cluster)
	if seq > 0 {
		col.ExpectAtOrBelow(seq)
	}
	h.sync = &syncState{inst: inst, seq: seq, col: col}
	h.met.ssStarted.Inc()
	h.cfg.Flight.Record("statesync-start", h.cfg.Shard, "instance %d, max seq %d", inst, seq)
	h.logf("statesync: fetching state (instance %d, max seq %d)", inst, seq)
	h.sendFetchState()
}

// sendFetchState multicasts the transfer's FETCH-STATE, designating one peer
// to ship the snapshot payload (digest-first handshake: everyone else
// answers with digests only, so a fetch costs one payload transfer, not 3f).
func (h *Host) sendFetchState() {
	others := h.OtherReplicas()
	if len(others) == 0 {
		return
	}
	designated := others[h.sync.payloadIdx%len(others)]
	h.Multicast(others, &statesync.FetchState{
		Instance:   h.sync.inst,
		Seq:        h.sync.seq,
		BodiesFrom: designated,
	})
}

// SyncState asks the peers for their checkpoint state and catches this
// replica up to it: the crash-restart path. maxSeq, when non-zero, pins the
// accepted snapshot to checkpoint boundaries at or below it (a recovering
// sharded replica aligns each shard with its restored merge boundary); 0
// accepts the peers' last stable checkpoint. The transfer completes
// asynchronously, retrying until f+1 peers agree.
func (h *Host) SyncState(maxSeq uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.startStateSync(h.active, maxSeq)
}

// Syncing reports whether a state transfer is still in flight.
func (h *Host) Syncing() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sync != nil
}

// tickSync retransmits the FETCH-STATE of an unfinished transfer. Called
// from the protocol tick under the host lock.
func (h *Host) tickSync() {
	if h.sync == nil {
		return
	}
	h.sync.ticksSinceAsk++
	if h.sync.ticksSinceAsk < syncRetryTicks {
		return
	}
	h.sync.ticksSinceAsk = 0
	// Rotate the designated payload shipper: if the previous one crashed or
	// lied, another peer of the agreed group serves the next round.
	h.sync.payloadIdx++
	h.sync.sawDesignated = false
	h.met.ssRetries.Inc()
	h.cfg.Flight.Record("statesync-retry", h.cfg.Shard,
		"instance %d, max seq %d", h.sync.inst, h.sync.seq)
	h.sendFetchState()
}

// handleState feeds replica from's STATE response to the in-flight transfer
// and adopts the result once f+1 peers agree. The collector counts one vote
// per envelope sender, so a Byzantine peer contributes only its own.
func (h *Host) handleState(from ids.ProcessID, m *statesync.State) {
	if h.sync == nil {
		return
	}
	if err := h.sync.col.Add(from, m); err != nil {
		return
	}
	// Count the designated peer as heard only when the response was produced
	// for a fetch that designated it (BodiesFrom echo): a stale digest-only
	// answer from a just-designated peer must not trigger rotation past it.
	others := h.OtherReplicas()
	if len(others) > 0 && from == others[h.sync.payloadIdx%len(others)] && m.BodiesFrom == from {
		h.sync.sawDesignated = true
	}
	a, ok := h.sync.col.Result()
	if !ok {
		// f+1 digests agree but the payload is missing or failed its hash,
		// and the designated peer has already answered (so waiting cannot
		// help): re-ask at once with the next peer designated instead of
		// waiting out the retry timer. The sawDesignated flag resets with
		// each designation, bounding the extra multicasts to one per round.
		if h.sync.col.NeedPayload() && h.sync.sawDesignated {
			h.sync.payloadIdx++
			h.sync.sawDesignated = false
			h.sync.ticksSinceAsk = 0
			h.sendFetchState()
		}
		return
	}
	done := h.sync
	h.sync = nil
	h.adoptSyncedState(a, done.inst, done.discard)
}

// adoptSyncedState installs an accepted state transfer: the snapshot becomes
// the applied state when the replica is behind it (or discards its own), the
// transferred bodies are stored, and — when this replica's own explicit
// history is behind the snapshot (a fresh restart rather than a below-base
// fill) — the agreed suffix becomes the instance's history, with the covered
// prefix represented by its digest fold exactly as garbage collection would
// leave it.
func (h *Host) adoptSyncedState(a *statesync.Adopted, inst core.InstanceID, discard bool) {
	h.met.ssAdopted.Inc()
	h.met.ssBytesIn.Add(uint64(len(a.Snap.AppState)))
	h.cfg.Flight.Record("statesync-adopt", h.cfg.Shard,
		"instance %d adopted snapshot seq %d (%d bodies)", inst, a.Snap.Seq, len(a.Bodies))
	for _, r := range a.Bodies {
		h.keepBody(r.Digest(), r, a.End())
	}
	if a.Snap.Seq > h.appliedSeq || discard {
		if err := h.install(a.Snap, true); err != nil {
			h.logf("statesync: snapshot restore failed: %v", err)
			return
		}
	}
	st := h.instances[inst]
	if st == nil {
		return
	}
	// Merge the transferred per-client timestamp windows into the instance's
	// logging windows: the suffix bodies below rebuild only the marks above
	// the snapshot, so without these a retransmission from below the adopted
	// boundary would be accepted as fresh and logged again.
	for _, w := range a.Snap.Windows {
		st.AdoptWindow(w.Client, w.High, w.Mask)
	}
	if st.BaseSeq == 0 && st.AbsLen() <= a.Snap.Seq && a.End() > st.AbsLen() {
		st.resetHistory(a.Snap.Seq, a.Snap.HistDigest, a.Suffix)
		if iv := uint64(st.Checkpoint.Interval); a.Snap.Seq > 0 && a.Snap.Seq%iv == 0 {
			st.Checkpoint.AdoptStable(a.Snap.Seq/iv, a.Snap.HistDigest)
		}
		h.replayAdopted(st)
	}
	// Apply the agreed suffix bodies that extend the applied sequence
	// directly: in the below-base fill they cover the gap between the
	// snapshot and the instance's base checkpoint, which the instance's own
	// history (digests from the base onward) cannot reconstruct.
	for h.appliedSeq >= a.Snap.Seq && h.appliedSeq < a.End() {
		d := a.Suffix[h.appliedSeq-a.Snap.Seq]
		r, ok := h.RequestByDigest(d)
		if !ok {
			break
		}
		h.applyRequest(r, d)
	}
	h.reconcileApplication(st)
	h.logf("statesync: adopted snapshot at %d (+%d suffix entries)", a.Snap.Seq, len(a.Suffix))
}

// install makes snapshot sn the applied state: application, applied
// position and digest chain, windows and reply rings. A rollback keeps the
// applied digests below sn; an adopted transfer (afresh) starts them at
// sn.Seq. The store then ends at sn, and after a transfer starts there.
func (h *Host) install(sn statesync.Snapshot, afresh bool) error {
	if err := h.application.Restore(sn.AppState); err != nil {
		return err
	}
	if afresh {
		h.appliedTrim = sn.Seq
		h.snaps.PruneBelow(sn.Seq)
	}
	h.appliedDigs = h.appliedDigs[:sn.Seq-h.appliedTrim]
	h.appliedSeq, h.appliedAcc = sn.Seq, sn.HistDigest
	h.met.appliedSeq.Set(int64(h.appliedSeq))
	h.appliedWindows = make(map[ids.ProcessID]tsState, len(sn.Windows))
	for _, w := range sn.Windows {
		h.appliedWindows[w.Client] = tsState{high: w.High, mask: w.Mask}
	}
	// Fresh rings: the snapshot's are read-only views (replyRing.capture).
	h.lastReply = make(map[ids.ProcessID]*replyRing, len(sn.Rings))
	for _, ring := range sn.Rings {
		r := h.replyRingFor(ring.Client)
		for i, ts := range ring.Timestamps {
			if i < len(ring.Replies) {
				r.add(ts, ring.Replies[i])
			}
		}
	}
	h.snaps.DropAbove(sn.Seq)
	h.snaps.Add(sn)
	return nil
}

// AppliedState returns the applied sequence length and the digest chain fold
// over it — the convergence identity recovery tests and harnesses compare
// across replicas.
func (h *Host) AppliedState() (uint64, authn.Digest) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.appliedSeq, h.appliedAcc
}

// CheckpointStatus reports the active instance's stable checkpoint position
// and how many history entries were garbage-collected, under the host lock
// (safe against the running event loop, unlike reading the instance state
// directly).
func (h *Host) CheckpointStatus() (stableSeq, trimmed uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.instances[h.active]
	return st.Checkpoint.StableSeq(), st.Trimmed()
}

// GCStats reports the retained storage of the replica: materialized history
// digests of the active instance, applied digests, stored request bodies,
// and retained snapshots. The memory bench asserts these stay flat over long
// runs with GC on.
func (h *Host) GCStats() (histDigests, appliedDigests, storedRequests, snapshots int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.instances[h.active].Digests), len(h.appliedDigs), len(h.requestStore), h.snaps.Len()
}
