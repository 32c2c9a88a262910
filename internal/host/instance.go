package host

import (
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
	"abstractbft/internal/transport"
)

// tsState is one client's timestamp window: the high-water mark (the highest
// timestamp logged) plus a bitmask of which recent lower timestamps were also
// logged (bit d set means high-d was logged). Pipelined clients race their
// in-flight timestamps across the network, so a replica can see t=5 before
// t=3; the window logs both instead of rejecting the late-arriving one, while
// still rejecting every duplicate (PBFT-style at-most-once). Its width is
// core.DefaultTimestampWindow, the bound pipelined clients keep their
// in-flight timestamps within, so replicas and clients cannot disagree on it.
type tsState struct {
	high, mask uint64
}

// fresh reports whether ts may still be logged under the window. The
// high-water mark itself is always logged by construction, so ts == high is
// stale even when the mask bit is unset (states built before the window
// machinery carry an empty mask).
func (w tsState) fresh(ts uint64) bool {
	if ts > w.high {
		return true
	}
	if ts == w.high || w.high-ts >= core.DefaultTimestampWindow {
		return false
	}
	return w.mask&(1<<(w.high-ts)) == 0
}

// merge folds another window into this one: the higher high-water mark wins
// and both mask's logged timestamps are kept (where they still fall inside
// the 64-bit window).
func (w tsState) merge(o tsState) tsState {
	if o.high > w.high {
		w, o = o, w
	}
	if d := w.high - o.high; d < 64 {
		w.mask |= o.mask << d
	}
	return w
}

// mark records ts as logged and returns the updated window.
func (w tsState) mark(ts uint64) tsState {
	if ts > w.high {
		if shift := ts - w.high; shift >= 64 {
			w.mask = 1
		} else {
			w.mask = w.mask<<shift | 1
		}
		w.high = ts
		return w
	}
	if d := w.high - ts; d < 64 {
		w.mask |= 1 << d
	}
	return w
}

// InstanceState is the per-Abstract-instance replica state shared by every
// protocol implementation: the local history LH_j (as digests, with bodies
// kept in the host's request store), the per-client timestamps t_j[c], the
// sequence number sn_j, the stopped flag set by the panicking subprotocol,
// and the checkpoint state.
type InstanceState struct {
	// ID is the instance number.
	ID core.InstanceID
	// BaseSeq is the absolute position the instance's explicit history
	// starts at: the base checkpoint carried by the init history (0 for the
	// first instance).
	BaseSeq uint64
	// BaseDigest is the state digest of the base checkpoint.
	BaseDigest authn.Digest
	// Digests is the materialized part of the local history from BaseSeq on
	// (digest per request). Garbage collection trims entries below the last
	// stable checkpoint: the first `trimmed` entries after BaseSeq are then
	// represented only by their running digest fold (trimAcc), so Digests[i]
	// holds the digest of the request at absolute position
	// BaseSeq+trimmed+i. HistoryDigest is unaffected by trimming — the
	// digest chain is a left fold, so dropping the storage of an
	// already-folded prefix changes nothing observable. Digests changes only
	// through appendDigest, resetHistory and TrimTo, which keep chain and
	// head in step with it.
	Digests history.DigestHistory
	// windows holds each client's timestamp window: its high-water mark is
	// t_j[c], the highest request timestamp logged, and its mask the
	// timestamps within the window below it that were also logged.
	windows map[ids.ProcessID]tsState
	// Stopped is set when the instance aborts (stops executing requests).
	Stopped bool
	// Initialized is true once the instance adopted its init history (or is
	// the first instance).
	Initialized bool
	// Checkpoint is the LCS state.
	Checkpoint *history.CheckpointState
	// AbortFlags are included in this replica's signed ABORT message
	// (e.g. core.AbortFlagLowLoad set by Chain's low-load optimization).
	AbortFlags uint32
	// InitLowLoad records whether the init history that initialized this
	// instance carried the low-load abort flag from at least f+1 replicas of
	// the previous instance (Backup then commits a single request).
	InitLowLoad bool

	// chain is the one DigestStep fold over the history, stored per
	// materialized position: chain[i] is the fold of the first trimmed+i+1
	// entries after BaseSeq, so len(chain) == len(Digests) always. Logging
	// advances it one step per request; HistoryDigest, checkpoint prefixes
	// and the trim fold are lookups into it. trimmed is the number of
	// entries after BaseSeq whose storage was garbage-collected and trimAcc
	// the fold over exactly those — the chain value below chain[0].
	chain   []authn.Digest
	trimmed uint64
	trimAcc authn.Digest
	// spareDigests and spareChain are the storage TrimTo moves the retained
	// suffix into (see trimFront).
	spareDigests history.DigestHistory
	spareChain   []authn.Digest
	// head is D(LH_j), the chain's last value folded with the base checkpoint
	// when there is one; sealHead refreshes it at the end of every history
	// change, so a batch's RESPs share one base fold.
	head authn.Digest

	// missing holds the adopted init history's digests whose bodies are not
	// known locally yet; held, the protocol messages that arrived meanwhile.
	missing map[authn.Digest]bool
	held    []transport.Envelope
	// cachedAbort caches the signed ABORT message once the instance stops.
	cachedAbort *core.SignedAbort
	// staleCtr / readmitCtr count timestamp-window rejections and window
	// re-admissions during batch filtering (wired from the host's metrics at
	// activation; nil no-ops otherwise). They live on the instance because
	// FilterFreshBatch has no host receiver.
	staleCtr   *obs.Counter
	readmitCtr *obs.Counter
	// proto is the instance's protocol replica, made at activation.
	proto ProtocolReplica
}

// AbsLen returns the absolute length of the local history (trimmed entries
// included).
func (st *InstanceState) AbsLen() uint64 {
	return st.BaseSeq + st.trimmed + uint64(len(st.Digests))
}

// Trimmed returns the number of history entries after BaseSeq whose storage
// was garbage-collected.
func (st *InstanceState) Trimmed() uint64 { return st.trimmed }

// relLen returns the number of history entries after BaseSeq (trimmed
// included).
func (st *InstanceState) relLen() uint64 { return st.trimmed + uint64(len(st.Digests)) }

// HistoryDigest returns D(LH_j): the digest of the local history, folded with
// the base checkpoint when present.
//
//abstractbft:noalloc
func (st *InstanceState) HistoryDigest() authn.Digest { return st.head }

// chainAt returns the DigestStep fold of the first idx history entries after
// BaseSeq, for idx <= relLen. Prefixes inside the trimmed region are no
// longer materialized and report the trim fold.
//
//abstractbft:noalloc
func (st *InstanceState) chainAt(idx uint64) authn.Digest {
	if idx <= st.trimmed {
		return st.trimAcc
	}
	return st.chain[idx-st.trimmed-1]
}

// appendDigest extends the history by one request digest and the chain by
// one step. Callers seal the head once their append span ends.
func (st *InstanceState) appendDigest(d authn.Digest) {
	st.chain = append(st.chain, history.DigestStep(st.chainAt(st.relLen()), d))
	st.Digests = append(st.Digests, d)
}

// sealHead recomputes the history digest after the history changed.
func (st *InstanceState) sealHead() {
	st.head = st.chainAt(st.relLen())
	if st.BaseSeq != 0 {
		st.head = authn.HashAll(st.BaseDigest[:], st.head[:])
	}
}

// resetHistory replaces the history after BaseSeq wholesale (an adopted init
// history or state transfer): the first trimmed entries are represented by
// their fold trimAcc alone, digests follow them.
func (st *InstanceState) resetHistory(trimmed uint64, trimAcc authn.Digest, digests history.DigestHistory) {
	st.trimmed, st.trimAcc = trimmed, trimAcc
	st.Digests = make(history.DigestHistory, 0, len(digests))
	st.chain = make([]authn.Digest, 0, len(digests))
	for _, d := range digests {
		st.appendDigest(d)
	}
	st.sealHead()
}

// Contains reports whether the instance's materialized history contains the
// request digest (trimmed entries, all below the last stable checkpoint, are
// not consulted).
func (st *InstanceState) Contains(d authn.Digest) bool { return st.Digests.Contains(d) }

// PrefixDigest returns the chain digest of the first idx history entries
// after BaseSeq (the whole history when idx reaches beyond it; the trim fold
// for prefixes that end inside the trimmed region).
//
//abstractbft:noalloc
func (st *InstanceState) PrefixDigest(idx uint64) authn.Digest {
	if idx > st.relLen() {
		idx = st.relLen()
	}
	return st.chainAt(idx)
}

// TrimTo garbage-collects the materialized history below absolute position
// seq (exclusive), which must be covered by a stable checkpoint: the dropped
// entries stay represented by their digest fold, so HistoryDigest, AbsLen,
// and abort reports from the stable checkpoint onward are unchanged. It
// returns the number of entries dropped.
func (st *InstanceState) TrimTo(seq uint64) int {
	if seq <= st.BaseSeq {
		return 0
	}
	rel := min(seq-st.BaseSeq, st.relLen())
	if rel <= st.trimmed {
		return 0
	}
	st.trimAcc = st.chainAt(rel)
	k := int(rel - st.trimmed)
	trimFront(&st.chain, &st.spareChain, k)
	trimFront(&st.Digests, &st.spareDigests, k)
	st.trimmed = rel
	return k
}

// trimFront drops the first k elements of *live. A slice that is appended to
// at the back and trimmed from the front for ever would otherwise be copied
// to fresh storage at every trim and re-grown by append after it; instead the
// rest moves into *spare's storage and the two swap, so a steady state
// allocates nothing.
func trimFront[S ~[]E, E any](live, spare *S, k int) {
	*live, *spare = append((*spare)[:0], (*live)[k:]...), *live
}

// markLogged records a logged request timestamp in client c's window.
func (st *InstanceState) markLogged(c ids.ProcessID, ts uint64) {
	st.windows[c] = st.windows[c].mark(ts)
}

// AdoptWindow merges a transferred timestamp window (carried by an adopted
// checkpoint snapshot) into client c's window, so requests from below the
// adopted boundary are rejected as duplicates instead of re-executed.
func (st *InstanceState) AdoptWindow(c ids.ProcessID, high, mask uint64) {
	st.windows[c] = st.windows[c].merge(tsState{high: high, mask: mask})
}

// TimestampFresh reports whether a request timestamp may still be logged for
// the client: newer than the high-water mark, or within the window below it
// and never logged. A correct client keeps at most its pipeline depth (which
// is bounded by the window width) requests in flight, so every duplicate it
// can produce is caught; a Byzantine client skipping far ahead can only get
// its own old requests re-executed, harming no one else (the PBFT window
// argument).
func (st *InstanceState) TimestampFresh(c ids.ProcessID, ts uint64) bool {
	return st.windows[c].fresh(ts)
}

// FilterFreshBatch splits a received batch into the requests that may be
// logged — fresh against the instance state AND against the requests already
// accepted from this batch — and the stale remainder. The intra-batch rule is
// the at-most-once invariant of batched ordering: without it, a Byzantine
// orderer (or client, for client-side batches) repeating a request inside
// one batch would get it logged and executed twice, since per-request
// freshness alone only checks against already-logged history.
func (st *InstanceState) FilterFreshBatch(batch msg.Batch) (fresh msg.Batch, stale []msg.Request) {
	// sim holds the windows of the clients seen so far with this batch's
	// accepted timestamps marked. Batches are small and usually carry few
	// distinct clients, so a stack-backed slice searched linearly replaces a
	// map per batch.
	type simWindow struct {
		client ids.ProcessID
		w      tsState
	}
	var simBuf [DefaultMaxBatch]simWindow
	sim := simBuf[:0]
	for i, req := range batch.Requests {
		k := 0
		for k < len(sim) && sim[k].client != req.Client {
			k++
		}
		if k == len(sim) {
			sim = append(sim, simWindow{client: req.Client, w: st.windows[req.Client]})
		}
		w := sim[k].w
		if !w.fresh(req.Timestamp) {
			if stale == nil {
				// First stale member: from here on the fresh requests are
				// copied out; an all-fresh batch (the common case) is
				// returned as it came, without rebuilding it.
				fresh.Requests = append(make([]msg.Request, 0, len(batch.Requests)-1), batch.Requests[:i]...)
			}
			stale = append(stale, req)
			st.staleCtr.Inc()
			continue
		}
		if req.Timestamp < w.high {
			// Logged only thanks to the window: a strict high-water rule
			// would have rejected this overtaken pipelined request.
			st.readmitCtr.Inc()
		}
		sim[k].w = w.mark(req.Timestamp)
		if stale != nil {
			fresh.Requests = append(fresh.Requests, req)
		}
	}
	if stale == nil {
		fresh.Requests = batch.Requests
	}
	return fresh, stale
}

// activate creates (and initializes, when possible) the state of instance id,
// which must lie above the active one, from init, its InitMessage: New
// activates FirstInstance with a nil init, handleInit every later instance.
// The new instance becomes the active one and the previous active instance
// stops, so at most one instance is ever live. Callers hold the host lock.
// It returns nil when the init history is invalid.
func (h *Host) activate(id core.InstanceID, init *core.InitMessage) *InstanceState {
	st := &InstanceState{
		ID:         id,
		windows:    make(map[ids.ProcessID]tsState),
		Checkpoint: history.NewCheckpointState(h.cluster.N, h.cfg.CheckpointInterval),
		staleCtr:   h.met.windowStale,
		readmitCtr: h.met.windowHits,
	}

	if init == nil {
		st.Initialized = true
		h.noteActivated(id)
	} else {
		if err := core.VerifyInitHistory(h.keys, h.cluster, id, &init.Init); err != nil {
			h.logf("rejecting init history for instance %d: %v", id, err)
			return nil
		}
		// Forward the verified history before anything of the instance
		// leaves this replica: links are FIFO, so every peer can activate
		// the instance before this replica's first message of it arrives.
		h.Multicast(h.OtherReplicas(), init)
		h.adoptInit(st, &init.Init)
	}

	h.instances[id] = st
	if prev := h.instances[h.active]; prev != nil {
		// At most one instance commits at a time.
		prev.Stopped = true
		h.met.switches.Inc()
		if h.cfg.Flight != nil {
			// Record the switch with the abort reporter set of the init
			// proof: which replicas' signed aborts justified it.
			var reporters []ids.ProcessID
			for _, s := range init.Init.Proof {
				reporters = append(reporters, s.Abort.Replica)
			}
			h.cfg.Flight.Record("switch", h.cfg.Shard,
				"instance %d -> %d, reporters %v", h.active, id, reporters)
		}
	}
	h.active = id
	st.proto = h.cfg.NewProtocol(h, st)
	return st
}

// adoptInit installs the init history into the instance state: it verifies
// which request bodies are available, fetches the missing ones from other
// replicas, and (when complete) reconciles the application state with the
// adopted history.
func (h *Host) adoptInit(st *InstanceState, init *core.InitHistory) {
	if h.observer != nil {
		h.observer.HistoryReset(st.ID, init.Extract.BaseSeq)
	}
	st.BaseSeq = init.Extract.BaseSeq
	st.BaseDigest = init.Extract.BaseDigest
	st.resetHistory(0, authn.Digest{}, init.Extract.Suffix)
	st.Checkpoint.Reset()
	st.InitLowLoad = core.InitHasFlag(init, h.cluster, core.AbortFlagLowLoad)

	// Every body the adopted history names is kept up to its end, also one
	// an older history stored at a lower position.
	end := st.AbsLen()
	for _, r := range init.Requests {
		h.keepBody(r.Digest(), r.Clone(), end)
	}
	st.missing = make(map[authn.Digest]bool)
	for _, d := range st.Digests {
		if r, ok := h.RequestByDigest(d); ok {
			h.keepBody(d, r, end)
		} else {
			st.missing[d] = true
		}
	}
	if len(st.missing) > 0 {
		h.sendFetch(st)
		return
	}
	h.finishInit(st)
}

// handleInit adopts an InitMessage: it activates an unknown instance from it
// (activate forwards it to the peers), or hands its bodies to completeInit.
// A late InitMessage of a superseded instance must not roll the replica back.
func (h *Host) handleInit(m *core.InitMessage) {
	if st := h.instances[m.Instance]; st != nil {
		h.completeInit(st, m.Init.Requests)
		return
	}
	if m.Instance > h.active {
		h.activate(m.Instance, m)
	}
}

// completeInit stores the bodies among reqs that st's initialization misses,
// and completes it once none is left. Any other body is dropped: a peer
// cannot make the replica keep what no history of its own names. A stopped
// instance was superseded, so its initialization never completes: a late
// body would otherwise reconcile the application with a replaced history.
func (h *Host) completeInit(st *InstanceState, reqs []msg.Request) {
	if len(st.missing) == 0 || st.Stopped {
		return
	}
	for _, r := range reqs {
		if d := r.Digest(); st.missing[d] {
			h.keepBody(d, r.Clone(), st.AbsLen())
			delete(st.missing, d)
		}
	}
	if len(st.missing) == 0 {
		h.finishInit(st)
	}
}

// sendFetch multicasts a FETCH for the request bodies st's pending
// initialization is missing (§4.4).
func (h *Host) sendFetch(st *InstanceState) {
	want := make([]authn.Digest, 0, len(st.missing))
	for d := range st.missing {
		want = append(want, d)
	}
	h.Multicast(h.OtherReplicas(), &core.FetchRequest{Instance: st.ID, Digests: want})
}

// finishInit completes initialization once every request body referenced by
// the init history is available locally, then delivers the protocol
// messages held meanwhile.
func (h *Host) finishInit(st *InstanceState) {
	st.missing = nil
	st.Initialized = true
	h.replayAdopted(st)
	h.reconcileApplication(st)
	if h.appliedSeq < st.BaseSeq {
		// The adopted init history starts at a base checkpoint this replica
		// never executed up to (it missed the ORDERs below it, and their
		// bodies are unknown cluster-wide — the init carries only digests
		// above the base). Fetch the checkpoint state from the peers; until
		// the transfer completes, the instance logs and replies but the
		// application stalls at the gap.
		h.startStateSync(st.ID, st.BaseSeq)
	}
	h.noteActivated(st.ID)
	held := st.held
	st.held = nil
	for _, env := range held {
		st.proto.Handle(env.From, env.Payload)
	}
}

// replayAdopted marks the timestamp windows of st's adopted history, so
// duplicate requests are rejected, and hands the observer every entry whose
// body is known at its absolute position.
func (h *Host) replayAdopted(st *InstanceState) {
	start := st.BaseSeq + st.trimmed
	for i, d := range st.Digests {
		if r, ok := h.RequestByDigest(d); ok {
			st.markLogged(r.Client, r.Timestamp)
			if h.observer != nil {
				h.observer.RequestLogged(st.ID, r, start+uint64(i))
			}
		}
	}
}

// reconcileApplication brings the replica's application state in line with
// the adopted history of st: it rolls a diverging speculative tail back to a
// retained checkpoint boundary (rollBack), then applies any missing suffix.
func (h *Host) reconcileApplication(st *InstanceState) {
	// Find the longest absolute common prefix between what has been applied
	// and the history; positions below the applied trim point are covered by
	// a stable checkpoint and agree by construction.
	common := h.appliedTrim
	for common-h.appliedTrim < uint64(len(h.appliedDigs)) && common < st.AbsLen() &&
		h.appliedDigs[common-h.appliedTrim] == h.digestAt(st, common) {
		common++
	}
	if common < h.appliedSeq && !h.rollBack(st.ID, common) {
		return
	}
	for h.appliedSeq < st.AbsLen() {
		d := h.digestAt(st, h.appliedSeq)
		r, ok := h.RequestByDigest(d)
		if !ok {
			break
		}
		h.applyRequest(r, d)
	}
}

// rollBack installs the newest retained boundary b with appliedTrim <= b <=
// common and replays the applied requests of [b, common), which the adopted
// history keeps; their digests are read before the install cuts them, as the
// instance may not materialize them. GC trims only below a retained boundary,
// so every body the replay needs is held. A replica whose store evicted every
// such boundary reports false, stops executing and fetches its peers' state.
func (h *Host) rollBack(inst core.InstanceID, common uint64) bool {
	if b, ok := h.snaps.BoundaryAtOrBelow(common); ok && b >= h.appliedTrim {
		kept := h.appliedDigs[b-h.appliedTrim : common-h.appliedTrim].Clone()
		if sn, _ := h.snaps.At(b); h.install(sn, false) == nil {
			h.cfg.Flight.Record("rollback", h.cfg.Shard,
				"instance %d: applied state back to boundary %d, replaying to %d", inst, b, common)
			for _, d := range kept {
				r, ok := h.RequestByDigest(d)
				if !ok {
					break
				}
				h.applyRequest(r, d)
			}
			return true
		}
	}
	h.cfg.Flight.Record("rollback-transfer", h.cfg.Shard,
		"instance %d: applied %d diverges at %d, no restorable boundary at or above %d",
		inst, h.appliedSeq, common, h.appliedTrim)
	h.startStateSync(inst, 0)
	h.sync.discard = true
	return false
}

// digestAt returns the digest the instance's history denotes at absolute
// position p, for h.appliedTrim <= p < st.AbsLen() (everything below the
// applied trim point is covered by a stable checkpoint and already applied).
// Positions the instance no longer materializes (below its base checkpoint,
// or trimmed by GC) are read from the host's applied sequence; positions
// below an adopted base checkpoint that were never applied locally cannot be
// reconstructed and yield the zero digest, which names no request body —
// execution stalls there until checkpoint state transfer (statesync) fills
// the gap. Garbage collection only ever trims below the applied position, so
// the lookup stays valid while an apply loop crosses a checkpoint boundary.
//
//abstractbft:noalloc
func (h *Host) digestAt(st *InstanceState, p uint64) authn.Digest {
	if start := st.BaseSeq + st.trimmed; p >= start {
		return st.Digests[p-start]
	}
	if i := p - h.appliedTrim; i < uint64(len(h.appliedDigs)) {
		return h.appliedDigs[i]
	}
	return authn.Digest{}
}

// applyRequest applies one request, whose digest d the caller already holds
// (from the history position it was found at), to the application and records
// it. Null operations (Mencius-style fillers ordered by idle shard leaders)
// advance the sequence and the digest chain but execute nothing and leave no
// reply. Crossing a checkpoint boundary captures the boundary state for the
// state-transfer plane.
func (h *Host) applyRequest(r msg.Request, d authn.Digest) []byte {
	var reply []byte
	if r.Client != ids.NullOp {
		reply = h.application.Execute(r.Command)
		h.replyRingFor(r.Client).add(r.Timestamp, reply)
		h.appliedWindows[r.Client] = h.appliedWindows[r.Client].mark(r.Timestamp)
	}
	h.appliedDigs = append(h.appliedDigs, d)
	h.appliedSeq++
	h.appliedAcc = history.DigestStep(h.appliedAcc, d)
	h.met.appliedSeq.Set(int64(h.appliedSeq))
	if h.traceExecOn && h.appliedSeq >= h.traceExecPos {
		h.cfg.Tracer.Record(h.traceExecCtx, obs.StageExecute, h.cfg.Shard, h.traceExecT, time.Since(h.traceExecT))
		h.traceExecOn = false
		h.traceExecCtx = obs.TraceContext{}
	}
	h.maybeSnapshot()
	return reply
}

// Log appends a request to the instance's local history (Step Z3/Q2/C3
// logging): the degenerate one-request batch. It returns the absolute
// position and false when the instance cannot log (stopped or
// uninitialized).
func (h *Host) Log(st *InstanceState, req msg.Request) (uint64, bool) {
	return h.LogBatch(st, msg.BatchOf(req))
}

// LogBatch appends every request of a batch to the instance's local history
// as one append span: the digests are appended in batch order, the checkpoint
// trigger runs once at the end, and the observer sees each request at its
// assigned position. It returns the absolute position of the batch's first
// request and false when the instance cannot log (stopped or uninitialized).
func (h *Host) LogBatch(st *InstanceState, batch msg.Batch) (uint64, bool) {
	return h.LogBatchDigested(st, batch, nil)
}

// LogBatchDigested is LogBatch for a caller that already hashed the batch's
// requests (to verify the batch MAC or the client authenticators): digests,
// when non-nil, must be batch.Digests(), so each request is hashed once per
// replica. Nil hashes here.
func (h *Host) LogBatchDigested(st *InstanceState, batch msg.Batch, digests []authn.Digest) (uint64, bool) {
	if st.Stopped || !st.Initialized || batch.Len() == 0 {
		return 0, false
	}
	if digests == nil {
		digests = batch.Digests()
	}
	start := st.AbsLen()
	// The store keeps its own copy of every body (on an in-process network
	// the batch's memory is the sender's); the commands of a batch share one
	// allocation, which garbage collection below a stable checkpoint lets go
	// of as a whole.
	size := 0
	for i := range batch.Requests {
		size += len(batch.Requests[i].Command)
	}
	commands := make([]byte, 0, size)
	for i, req := range batch.Requests {
		d := digests[i]
		stored := req
		stored.Command = nil
		if n := len(req.Command); n > 0 {
			commands = append(commands, req.Command...)
			stored.Command = commands[len(commands)-n : len(commands) : len(commands)]
		}
		h.keepBody(d, stored, st.AbsLen())
		st.appendDigest(d)
		st.markLogged(req.Client, req.Timestamp)
		if h.observer != nil {
			h.observer.RequestLogged(st.ID, req, st.AbsLen()-1)
		}
	}
	st.sealHead()
	h.met.logged.Add(uint64(batch.Len()))
	if h.cfg.Tracer != nil {
		ctx := batch.TraceCtx()
		var now time.Time
		if !h.traceFlushT.IsZero() && ctx.TraceID == h.traceCtx.TraceID {
			// This batch was flushed carrying a sampled context (the orderer's
			// assembler armed the slot): the flush→log gap is the ordering
			// stage (one protocol round trip on the orderer).
			now = time.Now()
			h.cfg.Tracer.Record(h.traceCtx, obs.StageOrder, h.cfg.Shard, h.traceFlushT, now.Sub(h.traceFlushT))
			h.traceCtx = obs.TraceContext{}
			h.traceFlushT = time.Time{}
		}
		if !h.traceExecOn && ctx.Sampled() {
			if now.IsZero() {
				now = time.Now()
			}
			h.traceExecOn = true
			h.traceExecCtx = ctx
			h.traceExecPos = st.AbsLen()
			h.traceExecT = now
		}
	}
	h.maybeCheckpoint(st)
	return start, true
}

// Execute applies a just-logged request to the application, provided the
// application is up to date with the instance history (the normal case for
// protocols whose replicas execute every request). It returns the
// application reply.
func (h *Host) Execute(st *InstanceState, req msg.Request) []byte {
	if h.sync != nil && h.sync.discard {
		return nil // a diverged applied state awaits the peers' (rollBack)
	}
	// Replay any logged-but-unapplied prefix first (e.g. after adopting an
	// init history whose bodies arrived late, or for Chain replicas that
	// start executing mid-stream).
	for h.appliedSeq < st.AbsLen() {
		d := h.digestAt(st, h.appliedSeq)
		r, ok := h.RequestByDigest(d)
		if !ok {
			// A body is missing at the applied position (a gap below an
			// adopted base checkpoint awaiting state transfer, or a body
			// still being fetched): the application must NOT execute past
			// it. Applying newly ordered requests at the gap position would
			// diverge the applied mirror from the agreed sequence — and a
			// diverged mirror can never be repaired, because the pending
			// transfer restores only above the current applied position.
			// Serve from cache when possible; reply empty otherwise (the
			// client cannot commit against this replica until the transfer
			// fills the gap, which is the honest state of affairs).
			if reply, ok := h.CachedReply(req.Client, req.Timestamp); ok {
				return reply
			}
			return nil
		}
		if r.ID() == req.ID() {
			return h.applyRequest(r, d)
		}
		h.applyRequest(r, d)
	}
	// Already applied (duplicate execution request): return the cached
	// reply when the client's reply ring still holds it.
	if reply, ok := h.CachedReply(req.Client, req.Timestamp); ok {
		return reply
	}
	return h.applyRequest(req, req.Digest())
}

// ExecuteBatch applies a just-logged batch to the application, one Execute
// per request in batch order. Each Execute replays the unapplied prefix up to
// its own request, so the prefix is replayed once per batch. It returns the
// application replies in batch order.
func (h *Host) ExecuteBatch(st *InstanceState, batch msg.Batch) [][]byte {
	replies := make([][]byte, len(batch.Requests))
	for i, req := range batch.Requests {
		replies[i] = h.Execute(st, req)
	}
	return replies
}

// CachedReply returns the reply sent to the given client at the given
// timestamp, as long as the client's reply ring (of timestamp-window width)
// still holds it — so a retransmission of a request that was overtaken by
// later pipelined requests of the same client is still served from cache.
func (h *Host) CachedReply(client ids.ProcessID, ts uint64) ([]byte, bool) {
	if ring, ok := h.lastReply[client]; ok {
		return ring.get(ts)
	}
	return nil, false
}

// Retransmission is the client-request entry gate every protocol shares: it
// reports whether req is a duplicate — already logged in st's timestamp
// window, or already applied by the host in an earlier instance — and, if
// so, the reply cached for it. Each protocol decides what to do with a
// duplicate; none logs it again. A request the instance window calls fresh
// but the host already applied is counted in host_applied_duplicates_total
// and recorded as an "applied-duplicate" flight event.
func (h *Host) Retransmission(st *InstanceState, req msg.Request) (dup bool, reply []byte, cached bool) {
	if st.TimestampFresh(req.Client, req.Timestamp) {
		if !h.appliedStale(req.Client, req.Timestamp) {
			return false, nil, false
		}
		reply, cached = h.CachedReply(req.Client, req.Timestamp)
		h.met.appliedDups.Inc()
		if h.cfg.Flight != nil {
			h.cfg.Flight.Record("applied-duplicate", h.cfg.Shard,
				"instance %d: client %v ts %d fresh to the instance window but already applied (cached reply: %t)",
				st.ID, req.Client, req.Timestamp, cached)
		}
		return true, reply, cached
	}
	reply, cached = h.CachedReply(req.Client, req.Timestamp)
	return true, reply, cached
}

// appliedStale reports whether the request at (client, ts) already executed
// in the host's applied prefix — the instance-independent at-most-once gate.
// Instance timestamp windows are rebuilt from init histories at every
// switch, and an init history only reaches back to its base checkpoint, so a
// retransmission of a request committed before that base looks fresh to a
// newly activated instance and would re-execute. Retransmission, the
// client-request entry gate, consults this alongside the instance window and
// serves the (host-level) cached reply instead. Entry gates only — ORDER-log
// filtering stays governed by the agreed instance windows, so replicas whose
// applied prefixes transiently differ cannot diverge their histories through
// this check.
func (h *Host) appliedStale(client ids.ProcessID, ts uint64) bool {
	w, ok := h.appliedWindows[client]
	if !ok {
		return false
	}
	return !w.fresh(ts)
}

// storedBody is one request body of the host's store with its stamp: the
// highest history position known to name it.
type storedBody struct {
	req msg.Request
	pos uint64
}

// bodyStamp records that the body with digest d was stamped pos.
type bodyStamp struct {
	d   authn.Digest
	pos uint64
}

// RequestByDigest returns a request body from the host's store.
func (h *Host) RequestByDigest(d authn.Digest) (msg.Request, bool) {
	b, ok := h.requestStore[d]
	return b.req, ok
}

// keepBody stores request body r under its digest d, stamped with the
// history position pos that names it; garbage collection releases it once the
// trim point passes the stamp. It is the store's only writer and never lowers
// a stamp, so a body several histories name lives as long as the highest.
func (h *Host) keepBody(d authn.Digest, r msg.Request, pos uint64) {
	if b, ok := h.requestStore[d]; ok && b.pos >= pos {
		return
	}
	h.requestStore[d] = storedBody{req: r, pos: pos}
	h.stamps = append(h.stamps, bodyStamp{d: d, pos: pos})
}
