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
//     (adoptSyncedState).

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
}

// syncRetryTicks is how many protocol ticks pass between FETCH-STATE
// retransmissions of an unfinished transfer.
const syncRetryTicks = 10

// checkpointEvery returns the effective checkpoint interval (0 when
// checkpointing is disabled).
func (h *Host) checkpointEvery() uint64 {
	iv := h.cfg.CheckpointInterval
	if iv == 0 {
		iv = history.DefaultCheckpointInterval
	}
	if iv < 0 {
		return 0
	}
	return uint64(iv)
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
	iv := h.checkpointEvery()
	if iv == 0 || h.appliedSeq == 0 || h.appliedSeq%iv != 0 {
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
	if st := h.instances[h.active]; st != nil {
		h.onStableCheckpoint(st)
	}
}

// onStableCheckpoint garbage-collects replica state below a newly stable
// checkpoint: the active instance's materialized digest prefix, the host's
// applied digest prefix, the request bodies only that prefix named, and
// snapshots older than the stable one. The digest chains are left folds, so
// trimming storage changes no observable digest; abort reports only ever
// carry the suffix from the checkpoint that was stable when they froze, and
// the active instance's report keeps its bodies.
func (h *Host) onStableCheckpoint(st *InstanceState) {
	if h.cfg.DisableGC || h.cfg.InstrumentHistories {
		return
	}
	s := st.Checkpoint.StableSeq()
	if h.cfg.RetainFloor != nil {
		if floor := h.cfg.RetainFloor(); floor < s {
			s = floor
		}
	}
	// Quantize the trim point down to a retained snapshot boundary: a
	// FETCH-STATE pinned anywhere at or above the trim point must always be
	// answerable with a snapshot plus a complete suffix, so storage may only
	// ever be released below a boundary that is still served.
	s, ok := h.snaps.BoundaryAtOrBelow(s)
	if !ok {
		return
	}
	if st.ID != h.active || h.appliedSeq < s {
		// The application has not yet executed up to the stable point
		// (bodies missing below an adopted base checkpoint): keep storage
		// until it catches up; the next stable checkpoint retries.
		return
	}
	dropped := st.TrimTo(s)
	var appliedDropped history.DigestHistory
	if s > h.appliedTrim {
		k := s - h.appliedTrim
		if k > uint64(len(h.appliedDigs)) {
			k = uint64(len(h.appliedDigs))
		}
		appliedDropped = trimFront(&h.appliedDigs, &h.appliedSpare, int(k))
		h.appliedTrim += k
	}
	// The applied mirror repeats the active history position by position
	// wherever both materialize it, and both dropped prefixes normally end at
	// s: a mirror entry equal to the history's at the same distance from s
	// names the body that entry already stands for, so it is not walked
	// again. (Equal digests name one body, so the skip is safe wherever the
	// two happen to line up.) What is left names bodies of the mirror's own:
	// a diverged speculative tail, or a prefix it kept longer.
	own := len(dropped)
	for i, d := range appliedDropped {
		if j := own - len(appliedDropped) + i; j < 0 || dropped[j] != d {
			dropped = append(dropped, d)
		}
	}
	mirrorOnly := len(dropped) - own
	// Superseded (stopped, non-active) instances would otherwise pin their
	// whole pre-switch history and every body it names for the life of the
	// replica. Freeze each one's signed abort first — late panickers still
	// get the full report, whose suffix the cached abort holds its own copy
	// of — then release the storage entirely.
	for id, inst := range h.instances {
		if id == h.active || !inst.Stopped || !inst.Initialized {
			continue
		}
		if inst.cachedAbort == nil {
			h.signedAbort(inst)
		}
		dropped = append(dropped, inst.TrimTo(inst.AbsLen())...)
	}
	if len(dropped) == 0 {
		return
	}
	h.met.gcRuns.Inc()
	h.met.stableSeq.Set(int64(s))
	h.cfg.Flight.Record("gc", h.cfg.Shard,
		"trimmed below stable seq %d (%d instance digests, %d applied digests)",
		s, len(dropped)-mirrorOnly, len(appliedDropped))
	// Release the request bodies named only by the dropped prefixes, in one
	// pass over them. A dropped digest can still be named above s — a
	// superseded instance's tail the active one adopted, or a request a
	// Byzantine orderer got logged twice across a switch — so what the
	// retained suffixes name is exempt. Those are short (the backlog above
	// the stable checkpoint), and the mirror's entries that repeat the
	// active history's are not inserted twice.
	retained := make(map[authn.Digest]struct{}, len(st.Digests))
	for _, inst := range h.instances {
		for _, d := range inst.Digests {
			retained[d] = struct{}{}
		}
	}
	// The active instance's abort, once frozen, keeps reporting the suffix
	// from the checkpoint that was stable then, and the next instance's init
	// history is extracted from such reports. A checkpoint that stabilized
	// after the freeze must not release those bodies, or every replica would
	// wait for them from peers that no longer have them.
	if a := h.instances[h.active]; a != nil && a.cachedAbort != nil {
		for _, d := range a.cachedAbort.Abort.Report.Suffix {
			retained[d] = struct{}{}
		}
	}
	for i, d := range h.appliedDigs {
		if i >= len(st.Digests) || st.Digests[i] != d {
			retained[d] = struct{}{}
		}
	}
	before := len(h.requestStore)
	for _, d := range dropped {
		if _, ok := retained[d]; !ok {
			delete(h.requestStore, d)
		}
	}
	h.met.gcBodies.Add(uint64(before - len(h.requestStore)))
	h.snaps.PruneBelow(s)
}

// handleFetchState answers a peer's FETCH-STATE: the snapshot the request
// selects plus the applied history suffix (digests and known bodies) beyond
// it. A replica that garbage-collected past the requested boundary cannot
// serve the suffix and stays silent; the fetcher's f+1 rule tolerates that.
// The claimed sender must match the transport-level sender, so a Byzantine
// process cannot direct responses at an uninvolved replica.
func (h *Host) handleFetchState(from ids.ProcessID, m *statesync.FetchState) {
	if !m.From.IsReplica() || m.From == h.id || m.From != from {
		return
	}
	inst := m.Instance
	if inst == 0 {
		inst = h.active
	}
	st := h.instances[inst]
	if st == nil || !st.Initialized {
		return
	}
	resp := &statesync.State{Instance: inst, From: h.id, BodiesFrom: m.BodiesFrom}
	var suffixFrom uint64
	switch {
	case m.Seq > 0:
		if sn, ok := h.snaps.LatestAtOrBelow(m.Seq); ok {
			resp.Snap = sn
			suffixFrom = sn.Seq
		}
	default:
		if s := st.Checkpoint.StableSeq(); s > 0 {
			if sn, ok := h.snaps.LatestAtOrBelow(s); ok {
				resp.Snap = sn
				suffixFrom = sn.Seq
			}
		}
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
		if r, ok := h.requestStore[d]; ok {
			resp.SuffixRequests = append(resp.SuffixRequests, r.Clone())
		}
	}
	h.met.ssServed.Inc()
	h.met.ssBytesOut.Add(uint64(len(resp.Snap.AppState)))
	h.Send(m.From, resp)
}

// startStateSync begins (or retargets) the host's state transfer. Callers
// hold the host lock.
func (h *Host) startStateSync(inst core.InstanceID, seq uint64) {
	if h.sync != nil && h.sync.inst == inst && h.sync.seq == seq {
		return
	}
	col := statesync.NewCollector(h.cluster.F)
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
		From:       h.id,
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
	st := h.instances[h.active]
	if st == nil {
		st = h.activate(h.cfg.FirstInstance, nil)
		if st == nil {
			return
		}
	}
	h.startStateSync(st.ID, maxSeq)
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

// handleState feeds one peer's STATE response to the in-flight transfer and
// adopts the result once f+1 peers agree. The response's claimed sender must
// match the transport-level sender: the collector counts one vote per
// distinct replica, and a Byzantine peer forging distinct From fields could
// otherwise stuff the f+1 agreement by itself.
func (h *Host) handleState(from ids.ProcessID, m *statesync.State) {
	if h.sync == nil || m.From != from {
		return
	}
	if err := h.sync.col.Add(m); err != nil {
		return
	}
	// Count the designated peer as heard only when the response was produced
	// for a fetch that designated it (BodiesFrom echo): a stale digest-only
	// answer from a just-designated peer must not trigger rotation past it.
	others := h.OtherReplicas()
	if len(others) > 0 && m.From == others[h.sync.payloadIdx%len(others)] && m.BodiesFrom == m.From {
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
	inst := h.sync.inst
	h.sync = nil
	h.adoptSyncedState(a, inst)
}

// adoptSyncedState installs an accepted state transfer: the application is
// restored to the snapshot when it is behind it, the transferred bodies are
// stored, and — when this replica's own explicit history is behind the
// snapshot (a fresh restart rather than a below-base fill) — the agreed
// suffix becomes the instance's history, with the covered prefix represented
// by its digest fold exactly as garbage collection would leave it.
func (h *Host) adoptSyncedState(a *statesync.Adopted, inst core.InstanceID) {
	h.met.ssAdopted.Inc()
	h.met.ssBytesIn.Add(uint64(len(a.Snap.AppState)))
	h.cfg.Flight.Record("statesync-adopt", h.cfg.Shard,
		"instance %d adopted snapshot seq %d (%d bodies)", inst, a.Snap.Seq, len(a.Bodies))
	for _, r := range a.Bodies {
		h.requestStore[r.Digest()] = r
	}
	restored := false
	if a.Snap.Seq > h.appliedSeq {
		if !a.Snap.IsZero() {
			if err := h.application.Restore(a.Snap.AppState); err != nil {
				h.logf("statesync: snapshot restore failed: %v", err)
				return
			}
		}
		h.appliedSeq = a.Snap.Seq
		h.appliedTrim = a.Snap.Seq
		h.appliedDigs = nil
		h.appliedAcc = a.Snap.HistDigest
		restored = true
	}
	st := h.instances[inst]
	if st == nil {
		return
	}
	// Restore the transferred per-client timestamp windows into the host's
	// applied windows and the instance's logging windows: the suffix bodies
	// below rebuild only the marks above the snapshot, so without these a
	// retransmission from below the adopted boundary would be accepted as
	// fresh and re-executed.
	for _, w := range a.Snap.Windows {
		h.appliedWindows[w.Client] = h.appliedWindows[w.Client].merge(tsState{high: w.High, mask: w.Mask})
		st.AdoptWindow(w.Client, w.High, w.Mask)
	}
	// Restore the transferred reply rings (oldest first, so eviction keeps
	// the newest entries): retransmissions of requests from below the
	// adopted boundary are served from cache exactly as on the live peers.
	for _, ring := range a.Snap.Rings {
		r := h.replyRingFor(ring.Client)
		for i, ts := range ring.Timestamps {
			if i < len(ring.Replies) {
				r.add(ts, ring.Replies[i])
			}
		}
	}
	if st.BaseSeq == 0 && st.AbsLen() <= a.Snap.Seq && a.End() > st.AbsLen() {
		st.resetHistory(a.Snap.Seq, a.Snap.HistDigest, a.Suffix)
		if iv := uint64(st.Checkpoint.Interval); iv > 0 && a.Snap.Seq > 0 && a.Snap.Seq%iv == 0 {
			st.Checkpoint.AdoptStable(a.Snap.Seq/iv, a.Snap.HistDigest)
		}
		adopter, _ := h.observer.(HistoryAdopter)
		for i, d := range st.Digests {
			if r, ok := h.requestStore[d]; ok {
				st.markLogged(r.Client, r.Timestamp)
				if adopter != nil {
					adopter.RequestAdopted(st.ID, r, st.BaseSeq+st.trimmed+uint64(i))
				}
			}
		}
		if end := st.AbsLen(); st.NextSeq < end {
			st.NextSeq = end
		}
	}
	// Apply the agreed suffix bodies that extend the applied sequence
	// directly: in the below-base fill they cover the gap between the
	// snapshot and the instance's base checkpoint, which the instance's own
	// history (digests from the base onward) cannot reconstruct.
	for h.appliedSeq >= a.Snap.Seq && h.appliedSeq < a.End() {
		d := a.Suffix[h.appliedSeq-a.Snap.Seq]
		r, ok := h.requestStore[d]
		if !ok {
			break
		}
		h.applyRequest(r, d)
	}
	h.reconcileApplication(st)
	if restored {
		h.takeActivationSnapshot()
	}
	h.logf("statesync: adopted snapshot at %d (+%d suffix entries)", a.Snap.Seq, len(a.Suffix))
}

// TimestampFreshFor reports whether the active instance would still log a
// request with the given client timestamp, under the host lock. Recovery
// tests use it to assert that adopted snapshots carry the per-client
// timestamp windows (a fresh verdict for a below-boundary timestamp means a
// retransmission would be re-executed).
func (h *Host) TimestampFreshFor(client ids.ProcessID, ts uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.instances[h.active]
	if st == nil {
		return true
	}
	return st.TimestampFresh(client, ts)
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
	if st == nil {
		return 0, 0
	}
	return st.Checkpoint.StableSeq(), st.Trimmed()
}

// GCStats reports the retained storage of the replica: materialized history
// digests of the active instance, applied digests, stored request bodies,
// and retained snapshots. The memory bench asserts these stay flat over long
// runs with GC on.
func (h *Host) GCStats() (histDigests, appliedDigests, storedRequests, snapshots int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if st := h.instances[h.active]; st != nil {
		histDigests = len(st.Digests)
	}
	return histDigests, len(h.appliedDigs), len(h.requestStore), h.snaps.Len()
}
