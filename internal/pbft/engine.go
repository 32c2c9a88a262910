package pbft

import (
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// EngineConfig configures a PBFT ordering engine.
type EngineConfig struct {
	// Cluster describes the replica group.
	Cluster ids.Cluster
	// Replica is the identity of the replica running this engine.
	Replica ids.ProcessID
	// Keys is the cryptographic key store.
	Keys *authn.KeyStore
	// Send transmits a protocol message to another replica.
	Send func(to ids.ProcessID, m any)
	// Deliver is called, in total order, for every ordered batch.
	Deliver func(batch []msg.Request)
	// BatchSize is the maximum number of requests per pre-prepare; 0 means 1.
	BatchSize int
	// ViewChangeTimeout is how long a replica waits for a known request to be
	// delivered before initiating a view change; 0 disables view changes.
	ViewChangeTimeout time.Duration
	// Now returns the current time; nil selects time.Now (tests may inject a
	// fake clock).
	Now func() time.Time
}

// knownRequest tracks a client request a replica has learned about but that
// has not yet been ordered; the timestamp drives view-change timeouts and the
// body allows a new primary to re-propose it.
type knownRequest struct {
	req  msg.Request
	seen time.Time
}

type entry struct {
	view       uint64
	digest     authn.Digest
	batch      []msg.Request
	prePrep    bool
	prepares   map[ids.ProcessID]bool
	commits    map[ids.ProcessID]bool
	committed  bool
	delivered  bool
	commitSent bool
}

// Engine is the replica-side PBFT protocol state machine. It is not
// goroutine-safe: the embedder serializes calls (replica hosts already run a
// single event loop).
type Engine struct {
	cfg EngineConfig

	view          uint64
	nextSeq       uint64
	lastDelivered uint64
	entries       map[uint64]*entry
	pendingReqs   []msg.Request
	knownReqs     map[msg.RequestID]*knownRequest
	orderedReqs   map[msg.RequestID]bool

	// view change state
	viewChanging bool
	targetView   uint64
	viewChanges  map[uint64]map[ids.ProcessID]*ViewChange
	// viewChangeCount counts completed view changes (observability, used by
	// tests).
	viewChangeCount uint64
}

// NewEngine creates a PBFT engine.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Engine{
		cfg:         cfg,
		entries:     make(map[uint64]*entry),
		knownReqs:   make(map[msg.RequestID]*knownRequest),
		orderedReqs: make(map[msg.RequestID]bool),
		viewChanges: make(map[uint64]map[ids.ProcessID]*ViewChange),
	}
}

// ViewChanges returns the number of completed view changes.
func (e *Engine) ViewChanges() uint64 { return e.viewChangeCount }

// Primary returns the primary of the current view.
func (e *Engine) Primary() ids.ProcessID { return e.cfg.Cluster.Primary(e.view) }

// IsPrimary reports whether this replica is the current primary.
func (e *Engine) IsPrimary() bool { return e.Primary() == e.cfg.Replica }

func (e *Engine) others() []ids.ProcessID {
	var out []ids.ProcessID
	for _, r := range e.cfg.Cluster.Replicas() {
		if r != e.cfg.Replica {
			out = append(out, r)
		}
	}
	return out
}

// SubmitRequest hands a client request to the engine. The primary batches and
// proposes it; backups remember it so they can trigger a view change if the
// primary never orders it.
func (e *Engine) SubmitRequest(req msg.Request) {
	id := req.ID()
	if e.orderedReqs[id] {
		return
	}
	if _, known := e.knownReqs[id]; !known {
		e.knownReqs[id] = &knownRequest{req: req, seen: e.cfg.Now()}
	}
	if e.IsPrimary() && !e.viewChanging {
		e.pendingReqs = append(e.pendingReqs, req)
		e.proposePending()
	}
}

// proposePending issues pre-prepares for pending requests in batches.
func (e *Engine) proposePending() {
	for len(e.pendingReqs) > 0 {
		n := len(e.pendingReqs)
		if n > e.cfg.BatchSize {
			n = e.cfg.BatchSize
		}
		batch := make([]msg.Request, n)
		copy(batch, e.pendingReqs[:n])
		e.pendingReqs = append([]msg.Request(nil), e.pendingReqs[n:]...)

		seq := e.nextSeq + 1
		e.nextSeq = seq
		digest := BatchDigest(batch)
		ent := e.getEntry(seq)
		ent.view = e.view
		ent.digest = digest
		ent.batch = batch
		ent.prePrep = true
		ent.prepares[e.cfg.Replica] = true
		for _, to := range e.others() {
			mac := e.cfg.Keys.MAC(e.cfg.Replica, to, phaseBytes('P', e.view, seq, digest))
			e.cfg.Send(to, &PrePrepare{View: e.view, Seq: seq, Batch: batch, Digest: digest, MAC: mac})
		}
		e.maybeCommitPhase(seq)
	}
}

func (e *Engine) getEntry(seq uint64) *entry {
	ent, ok := e.entries[seq]
	if !ok {
		ent = &entry{prepares: make(map[ids.ProcessID]bool), commits: make(map[ids.ProcessID]bool)}
		e.entries[seq] = ent
	}
	return ent
}

// HandleMessage processes one PBFT protocol message from another replica.
func (e *Engine) HandleMessage(from ids.ProcessID, m any) {
	switch t := m.(type) {
	case *PrePrepare:
		e.onPrePrepare(from, t)
	case *Prepare:
		e.onPrepare(from, t)
	case *Commit:
		e.onCommit(from, t)
	case *ViewChange:
		e.onViewChange(from, t)
	case *NewView:
		e.onNewView(from, t)
	}
}

func (e *Engine) onPrePrepare(from ids.ProcessID, m *PrePrepare) {
	if m.View != e.view || from != e.Primary() || e.viewChanging {
		return
	}
	if err := e.cfg.Keys.VerifyMAC(from, e.cfg.Replica, phaseBytes('P', m.View, m.Seq, m.Digest), m.MAC); err != nil {
		return
	}
	if BatchDigest(m.Batch) != m.Digest {
		return
	}
	ent := e.getEntry(m.Seq)
	if ent.prePrep && ent.digest != m.Digest {
		// Conflicting proposal from the primary: ignore; the timeout will
		// trigger a view change.
		return
	}
	ent.view = m.View
	ent.digest = m.Digest
	ent.batch = m.Batch
	ent.prePrep = true
	for _, r := range m.Batch {
		if _, known := e.knownReqs[r.ID()]; !known {
			e.knownReqs[r.ID()] = &knownRequest{req: r, seen: e.cfg.Now()}
		}
	}
	// The pre-prepare counts as the primary's prepare vote.
	ent.prepares[from] = true
	ent.prepares[e.cfg.Replica] = true
	for _, to := range e.others() {
		mac := e.cfg.Keys.MAC(e.cfg.Replica, to, phaseBytes('p', m.View, m.Seq, m.Digest))
		e.cfg.Send(to, &Prepare{View: m.View, Seq: m.Seq, Digest: m.Digest, Replica: e.cfg.Replica, MAC: mac})
	}
	e.maybeCommitPhase(m.Seq)
}

func (e *Engine) onPrepare(from ids.ProcessID, m *Prepare) {
	if m.View != e.view || e.viewChanging {
		return
	}
	if err := e.cfg.Keys.VerifyMAC(from, e.cfg.Replica, phaseBytes('p', m.View, m.Seq, m.Digest), m.MAC); err != nil {
		return
	}
	ent := e.getEntry(m.Seq)
	if ent.prePrep && ent.digest != m.Digest {
		return
	}
	ent.prepares[from] = true
	e.maybeCommitPhase(m.Seq)
}

// maybeCommitPhase sends a COMMIT once the entry is prepared (pre-prepare
// plus 2f matching prepares).
func (e *Engine) maybeCommitPhase(seq uint64) {
	ent := e.entries[seq]
	if ent == nil || !ent.prePrep || ent.commitSent {
		return
	}
	if len(ent.prepares) < e.cfg.Cluster.Quorum() {
		return
	}
	ent.commitSent = true
	ent.commits[e.cfg.Replica] = true
	for _, to := range e.others() {
		mac := e.cfg.Keys.MAC(e.cfg.Replica, to, phaseBytes('c', ent.view, seq, ent.digest))
		e.cfg.Send(to, &Commit{View: ent.view, Seq: seq, Digest: ent.digest, Replica: e.cfg.Replica, MAC: mac})
	}
	e.maybeDeliver()
}

func (e *Engine) onCommit(from ids.ProcessID, m *Commit) {
	if err := e.cfg.Keys.VerifyMAC(from, e.cfg.Replica, phaseBytes('c', m.View, m.Seq, m.Digest), m.MAC); err != nil {
		return
	}
	ent := e.getEntry(m.Seq)
	if ent.prePrep && ent.digest != m.Digest {
		return
	}
	ent.commits[from] = true
	e.maybeDeliver()
}

// maybeDeliver delivers committed batches in sequence order.
func (e *Engine) maybeDeliver() {
	for {
		seq := e.lastDelivered + 1
		ent := e.entries[seq]
		if ent == nil || !ent.prePrep || ent.delivered {
			return
		}
		if len(ent.commits) < e.cfg.Cluster.Quorum() || len(ent.prepares) < e.cfg.Cluster.Quorum() {
			return
		}
		ent.committed = true
		ent.delivered = true
		e.lastDelivered = seq
		for _, r := range ent.batch {
			e.orderedReqs[r.ID()] = true
			delete(e.knownReqs, r.ID())
		}
		if e.cfg.Deliver != nil {
			e.cfg.Deliver(ent.batch)
		}
	}
}

// Tick drives time-based behaviour: a replica that has known, unordered
// requests older than the view-change timeout initiates a view change.
func (e *Engine) Tick() {
	if e.cfg.ViewChangeTimeout <= 0 {
		return
	}
	now := e.cfg.Now()
	stale := false
	for _, k := range e.knownReqs {
		if now.Sub(k.seen) > e.cfg.ViewChangeTimeout {
			stale = true
			break
		}
	}
	if stale {
		e.startViewChange(e.view + 1)
	}
}

// startViewChange initiates (or joins) a view change to the target view.
func (e *Engine) startViewChange(target uint64) {
	if target <= e.view {
		return
	}
	if e.viewChanging && target <= e.targetView {
		return
	}
	e.viewChanging = true
	e.targetView = target
	vc := e.buildViewChange(target)
	e.recordViewChange(vc)
	for _, to := range e.others() {
		e.cfg.Send(to, vc)
	}
	e.maybeEnterNewView(target)
}

func (e *Engine) buildViewChange(target uint64) *ViewChange {
	vc := &ViewChange{NewView: target, Replica: e.cfg.Replica, LastDelivered: e.lastDelivered}
	for seq, ent := range e.entries {
		if seq <= e.lastDelivered || !ent.prePrep {
			continue
		}
		if len(ent.prepares) >= e.cfg.Cluster.Quorum() {
			vc.Prepared = append(vc.Prepared, PreparedEntry{Seq: seq, Digest: ent.digest, Batch: ent.batch})
		}
	}
	vc.Sig = e.cfg.Keys.Sign(e.cfg.Replica, vc.SignedBytes())
	return vc
}

func (e *Engine) recordViewChange(vc *ViewChange) {
	m, ok := e.viewChanges[vc.NewView]
	if !ok {
		m = make(map[ids.ProcessID]*ViewChange)
		e.viewChanges[vc.NewView] = m
	}
	m[vc.Replica] = vc
}

func (e *Engine) onViewChange(from ids.ProcessID, vc *ViewChange) {
	if vc.Replica != from || vc.NewView <= e.view {
		return
	}
	if err := e.cfg.Keys.VerifySignature(vc.Replica, vc.SignedBytes(), vc.Sig); err != nil {
		return
	}
	e.recordViewChange(vc)
	// Join the view change once f+1 replicas ask for it (liveness rule).
	if len(e.viewChanges[vc.NewView]) >= e.cfg.Cluster.WeakQuorum() && (!e.viewChanging || e.targetView < vc.NewView) {
		e.startViewChange(vc.NewView)
		return
	}
	e.maybeEnterNewView(vc.NewView)
}

// maybeEnterNewView lets the new primary assemble and broadcast the NEW-VIEW
// message once 2f+1 view changes are available.
func (e *Engine) maybeEnterNewView(target uint64) {
	if e.cfg.Cluster.Primary(target) != e.cfg.Replica {
		return
	}
	vcs := e.viewChanges[target]
	if len(vcs) < e.cfg.Cluster.Quorum() {
		return
	}
	if e.view >= target {
		return
	}
	// Re-propose the highest prepared batch per sequence number.
	reproposals := make(map[uint64]PreparedEntry)
	maxSeq := e.lastDelivered
	var list []ViewChange
	for _, vc := range vcs {
		list = append(list, *vc)
		for _, p := range vc.Prepared {
			if existing, ok := reproposals[p.Seq]; !ok || existing.Digest != p.Digest {
				reproposals[p.Seq] = p
			}
			if p.Seq > maxSeq {
				maxSeq = p.Seq
			}
		}
		if vc.LastDelivered > maxSeq {
			maxSeq = vc.LastDelivered
		}
	}
	nv := &NewView{View: target, ViewChanges: list}
	for seq := e.lastDelivered + 1; seq <= maxSeq; seq++ {
		batch := []msg.Request{}
		digest := BatchDigest(batch)
		if p, ok := reproposals[seq]; ok {
			batch = p.Batch
			digest = p.Digest
		}
		nv.Proposals = append(nv.Proposals, PrePrepare{View: target, Seq: seq, Batch: batch, Digest: digest})
	}
	e.enterView(target)
	e.nextSeq = maxSeq
	for _, to := range e.others() {
		e.cfg.Send(to, nv)
	}
	e.applyNewViewProposals(nv)
	// Re-propose any requests the old views never ordered.
	e.reproposeKnown()
}

func (e *Engine) onNewView(from ids.ProcessID, nv *NewView) {
	if nv.View <= e.view || e.cfg.Cluster.Primary(nv.View) != from {
		return
	}
	// Validate the 2f+1 signed view changes.
	valid := 0
	seen := make(map[ids.ProcessID]bool)
	for i := range nv.ViewChanges {
		vc := &nv.ViewChanges[i]
		if vc.NewView != nv.View || seen[vc.Replica] {
			continue
		}
		if err := e.cfg.Keys.VerifySignature(vc.Replica, vc.SignedBytes(), vc.Sig); err != nil {
			continue
		}
		seen[vc.Replica] = true
		valid++
	}
	if valid < e.cfg.Cluster.Quorum() {
		return
	}
	e.enterView(nv.View)
	e.applyNewViewProposals(nv)
}

// enterView switches the engine into the given view.
func (e *Engine) enterView(view uint64) {
	e.view = view
	e.viewChanging = false
	e.viewChangeCount++
	// Reset timers for known-but-unordered requests so the new primary gets
	// a full timeout to order them.
	now := e.cfg.Now()
	for _, k := range e.knownReqs {
		k.seen = now
	}
}

// applyNewViewProposals treats the new-view proposals as pre-prepares in the
// new view.
func (e *Engine) applyNewViewProposals(nv *NewView) {
	for i := range nv.Proposals {
		p := nv.Proposals[i]
		if p.Seq <= e.lastDelivered {
			continue
		}
		ent := e.getEntry(p.Seq)
		ent.view = nv.View
		ent.digest = p.Digest
		ent.batch = p.Batch
		ent.prePrep = true
		ent.commitSent = false
		ent.prepares = map[ids.ProcessID]bool{e.cfg.Replica: true}
		ent.commits = map[ids.ProcessID]bool{}
		if e.cfg.Cluster.Primary(nv.View) != e.cfg.Replica {
			for _, to := range e.others() {
				mac := e.cfg.Keys.MAC(e.cfg.Replica, to, phaseBytes('p', nv.View, p.Seq, p.Digest))
				e.cfg.Send(to, &Prepare{View: nv.View, Seq: p.Seq, Digest: p.Digest, Replica: e.cfg.Replica, MAC: mac})
			}
		}
		if p.Seq > e.nextSeq {
			e.nextSeq = p.Seq
		}
	}
	if e.IsPrimary() {
		e.reproposeKnown()
	}
}

// reproposeKnown re-queues requests this replica knows about but that were
// never ordered (used by a new primary after a view change).
func (e *Engine) reproposeKnown() {
	if !e.IsPrimary() {
		return
	}
	inFlight := make(map[msg.RequestID]bool)
	for seq, ent := range e.entries {
		if seq <= e.lastDelivered {
			continue
		}
		for _, r := range ent.batch {
			inFlight[r.ID()] = true
		}
	}
	for id, k := range e.knownReqs {
		if e.orderedReqs[id] || inFlight[id] {
			continue
		}
		e.pendingReqs = append(e.pendingReqs, k.req)
	}
	e.proposePending()
}
