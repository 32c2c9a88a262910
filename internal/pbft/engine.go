package pbft

import (
	"slices"
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
	// Admit reports whether auths holds, for each request batch[i] that from
	// pre-prepared, an authenticator its client made, digests[i] being its
	// digest. Required: no pre-prepare it rejects is prepared.
	Admit func(from ids.ProcessID, batch []msg.Request, auths []authn.Authenticator, digests []authn.Digest) bool
	// ViewChangeTimeout is how long a replica waits for a known request to be
	// delivered before initiating a view change; 0 disables view changes.
	ViewChangeTimeout time.Duration
	// Now returns the current time; nil selects time.Now (tests may inject a
	// fake clock).
	Now func() time.Time
}

// knownRequest tracks a client request a replica has learned about but that
// has not yet been delivered; the timestamp drives view-change timeouts and
// the body and client authenticator allow a new primary to re-propose it.
type knownRequest struct {
	req  msg.Request
	auth authn.Authenticator
	seen time.Time
}

// entry is one undelivered sequence number; delivery deletes it.
type entry struct {
	view       uint64
	digest     authn.Digest
	batch      []msg.Request
	auths      []authn.Authenticator
	prePrep    bool
	prepares   map[ids.ProcessID]bool
	commits    map[ids.ProcessID]bool
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
	knownReqs     map[msg.RequestID]*knownRequest

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
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Engine{
		cfg:         cfg,
		entries:     make(map[uint64]*entry),
		knownReqs:   make(map[msg.RequestID]*knownRequest),
		viewChanges: make(map[uint64]map[ids.ProcessID]*ViewChange),
	}
}

// ViewChanges returns the number of completed view changes.
func (e *Engine) ViewChanges() uint64 { return e.viewChangeCount }

// Primary returns the primary of the current view.
func (e *Engine) Primary() ids.ProcessID { return e.cfg.Cluster.Primary(e.view) }

// IsPrimary reports whether this replica is the current primary.
func (e *Engine) IsPrimary() bool { return e.Primary() == e.cfg.Replica }

// Idle reports whether every batch this engine proposed has been delivered.
func (e *Engine) Idle() bool { return e.nextSeq <= e.lastDelivered }

func (e *Engine) others() []ids.ProcessID { return e.cfg.Cluster.Others(e.cfg.Replica) }

// Track records an admitted client request and its authenticator until it is
// delivered, so that a request the primary never orders triggers a view
// change and the next primary re-proposes it.
func (e *Engine) Track(req msg.Request, auth authn.Authenticator) {
	if _, known := e.knownReqs[req.ID()]; !known {
		e.knownReqs[req.ID()] = &knownRequest{req: req, auth: auth, seen: e.cfg.Now()}
	}
}

// Propose orders one batch of admitted requests, auths[i] being batch[i]'s
// client authenticator, under the next sequence number. Only the primary of
// a settled view proposes; elsewhere the call is a no-op and the tracked
// requests wait for the next primary.
func (e *Engine) Propose(batch []msg.Request, auths []authn.Authenticator) {
	if !e.IsPrimary() || e.viewChanging || len(batch) == 0 {
		return
	}
	e.nextSeq++
	seq := e.nextSeq
	digest := msg.Batch{Requests: batch}.Digest()
	e.entries[seq] = &entry{view: e.view, digest: digest, batch: batch, auths: auths, prePrep: true,
		prepares: map[ids.ProcessID]bool{e.cfg.Replica: true}, commits: map[ids.ProcessID]bool{}}
	for _, to := range e.others() {
		mac := e.cfg.Keys.MAC(e.cfg.Replica, to, phaseBytes('P', e.view, seq, digest))
		e.cfg.Send(to, &PrePrepare{View: e.view, Seq: seq, Batch: batch, Auths: auths, Digest: digest, MAC: mac})
	}
	e.maybeCommitPhase(seq)
}

func (e *Engine) getEntry(seq uint64) *entry {
	if e.entries[seq] == nil {
		e.entries[seq] = &entry{prepares: make(map[ids.ProcessID]bool), commits: make(map[ids.ProcessID]bool)}
	}
	return e.entries[seq]
}

// HandleMessage processes one PBFT protocol message that from sent. Only
// replicas vote, and a sequence number at or below the last delivered one
// is forgotten, so its late messages are ignored.
func (e *Engine) HandleMessage(from ids.ProcessID, m any) {
	if !from.IsReplica() {
		return
	}
	switch t := m.(type) {
	case *PrePrepare:
		e.onPrePrepare(from, t)
	case *Prepare:
		e.onPrepare(from, t)
	case *Commit:
		e.onCommit(from, t)
	case *ViewChange:
		e.onViewChange(t)
	case *NewView:
		e.onNewView(from, t)
	}
}

func (e *Engine) onPrePrepare(from ids.ProcessID, m *PrePrepare) {
	if m.View != e.view || m.Seq <= e.lastDelivered || from != e.Primary() || e.viewChanging ||
		e.cfg.Keys.VerifyMAC(from, e.cfg.Replica, phaseBytes('P', m.View, m.Seq, m.Digest), m.MAC) != nil {
		return
	}
	digests := msg.Batch{Requests: m.Batch}.Digests()
	if msg.DigestOf(digests) != m.Digest || !e.cfg.Admit(from, m.Batch, m.Auths, digests) {
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
	ent.auths = m.Auths
	ent.prePrep = true
	for i, r := range m.Batch {
		e.Track(r, m.Auths[i])
	}
	// The pre-prepare counts as the primary's prepare vote.
	ent.prepares[from] = true
	ent.prepares[e.cfg.Replica] = true
	for _, to := range e.others() {
		mac := e.cfg.Keys.MAC(e.cfg.Replica, to, phaseBytes('p', m.View, m.Seq, m.Digest))
		e.cfg.Send(to, &Prepare{View: m.View, Seq: m.Seq, Digest: m.Digest, MAC: mac})
	}
	e.maybeCommitPhase(m.Seq)
}

func (e *Engine) onPrepare(from ids.ProcessID, m *Prepare) {
	if m.View != e.view || m.Seq <= e.lastDelivered || e.viewChanging ||
		e.cfg.Keys.VerifyMAC(from, e.cfg.Replica, phaseBytes('p', m.View, m.Seq, m.Digest), m.MAC) != nil {
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
	if ent == nil || !ent.prePrep || ent.commitSent || len(ent.prepares) < e.cfg.Cluster.Quorum() {
		return
	}
	ent.commitSent = true
	ent.commits[e.cfg.Replica] = true
	for _, to := range e.others() {
		mac := e.cfg.Keys.MAC(e.cfg.Replica, to, phaseBytes('c', ent.view, seq, ent.digest))
		e.cfg.Send(to, &Commit{View: ent.view, Seq: seq, Digest: ent.digest, MAC: mac})
	}
	e.maybeDeliver()
}

func (e *Engine) onCommit(from ids.ProcessID, m *Commit) {
	if m.Seq <= e.lastDelivered || e.cfg.Keys.VerifyMAC(from, e.cfg.Replica, phaseBytes('c', m.View, m.Seq, m.Digest), m.MAC) != nil {
		return
	}
	ent := e.getEntry(m.Seq)
	if ent.prePrep && ent.digest != m.Digest {
		return
	}
	ent.commits[from] = true
	e.maybeDeliver()
}

// maybeDeliver delivers committed batches in sequence order and forgets each
// one it delivers.
func (e *Engine) maybeDeliver() {
	for {
		seq := e.lastDelivered + 1
		ent := e.entries[seq]
		if ent == nil || !ent.prePrep || len(ent.commits) < e.cfg.Cluster.Quorum() || len(ent.prepares) < e.cfg.Cluster.Quorum() {
			return
		}
		delete(e.entries, seq)
		e.lastDelivered = seq
		for _, r := range ent.batch {
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
	for _, k := range e.knownReqs {
		if now.Sub(k.seen) > e.cfg.ViewChangeTimeout {
			e.startViewChange(e.view + 1)
			return
		}
	}
}

// startViewChange initiates (or joins) a view change to the target view.
func (e *Engine) startViewChange(target uint64) {
	if target <= e.view || (e.viewChanging && target <= e.targetView) {
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
		if ent.prePrep && len(ent.prepares) >= e.cfg.Cluster.Quorum() {
			vc.Prepared = append(vc.Prepared, PreparedEntry{Seq: seq, View: ent.view, Digest: ent.digest, Batch: ent.batch, Auths: ent.auths})
		}
	}
	vc.Sig = e.cfg.Keys.Sign(e.cfg.Replica, vc.SignedBytes())
	return vc
}

func (e *Engine) recordViewChange(vc *ViewChange) {
	if e.viewChanges[vc.NewView] == nil {
		e.viewChanges[vc.NewView] = make(map[ids.ProcessID]*ViewChange)
	}
	e.viewChanges[vc.NewView][vc.Replica] = vc
}

// onViewChange records vc, whoever relays it: its signature names its
// replica.
func (e *Engine) onViewChange(vc *ViewChange) {
	if vc.NewView <= e.view || !e.validViewChange(vc) {
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

// validViewChange reports whether a replica signed vc and each batch it
// reports prepared matches the signed digest.
func (e *Engine) validViewChange(vc *ViewChange) bool {
	if !vc.Replica.IsReplica() || e.cfg.Keys.VerifySignature(vc.Replica, vc.SignedBytes(), vc.Sig) != nil {
		return false
	}
	for _, p := range vc.Prepared {
		if len(p.Auths) != len(p.Batch) || (msg.Batch{Requests: p.Batch}).Digest() != p.Digest {
			return false
		}
	}
	return true
}

// maybeEnterNewView lets the new primary assemble and broadcast the NEW-VIEW
// message once 2f+1 view changes are available.
func (e *Engine) maybeEnterNewView(target uint64) {
	vcs := e.viewChanges[target]
	if e.cfg.Cluster.Primary(target) != e.cfg.Replica || len(vcs) < e.cfg.Cluster.Quorum() || e.view >= target {
		return
	}
	nv := &NewView{View: target}
	for _, vc := range vcs {
		nv.ViewChanges = append(nv.ViewChanges, *vc)
	}
	nv.Proposals = newViewProposals(target, nv.ViewChanges)
	e.enterView(target)
	for _, to := range e.others() {
		e.cfg.Send(to, nv)
	}
	e.applyNewViewProposals(target, nv.Proposals)
}

// newViewProposals computes a NEW-VIEW's proposals from its view changes,
// as every replica does: each sequence number above the lowest one a view
// change delivered, up to the highest one delivered or prepared, gets the
// batch prepared in the highest view, or an empty batch where none is. The
// clients' authenticators were checked at the pre-prepare: at least f+1
// correct replicas admitted a prepared batch, though the entries for the
// others may fail.
func newViewProposals(view uint64, vcs []ViewChange) []PrePrepare {
	lo, hi := vcs[0].LastDelivered, uint64(0)
	best := make(map[uint64]*PreparedEntry)
	for i := range vcs {
		lo, hi = min(lo, vcs[i].LastDelivered), max(hi, vcs[i].LastDelivered)
		for j := range vcs[i].Prepared {
			p := &vcs[i].Prepared[j]
			if b := best[p.Seq]; b == nil || p.View > b.View {
				best[p.Seq] = p
			}
			hi = max(hi, p.Seq)
		}
	}
	var out []PrePrepare
	for seq := lo + 1; seq <= hi; seq++ {
		pp := PrePrepare{View: view, Seq: seq, Digest: msg.DigestOf(nil)}
		if p := best[seq]; p != nil {
			pp.Batch, pp.Auths, pp.Digest = p.Batch, p.Auths, p.Digest
		}
		out = append(out, pp)
	}
	return out
}

// onNewView accepts a NEW-VIEW that carries 2f+1 valid view changes from
// distinct replicas and whose proposals are the ones those view changes
// determine.
func (e *Engine) onNewView(from ids.ProcessID, nv *NewView) {
	if nv.View <= e.view || e.cfg.Cluster.Primary(nv.View) != from {
		return
	}
	var vcs []ViewChange
	seen := make(map[ids.ProcessID]bool)
	for i := range nv.ViewChanges {
		vc := &nv.ViewChanges[i]
		if vc.NewView == nv.View && !seen[vc.Replica] && e.validViewChange(vc) {
			seen[vc.Replica] = true
			vcs = append(vcs, *vc)
		}
	}
	if len(vcs) < e.cfg.Cluster.Quorum() {
		return
	}
	want := newViewProposals(nv.View, vcs)
	if !slices.EqualFunc(want, nv.Proposals, func(a, b PrePrepare) bool { return a.Seq == b.Seq && a.Digest == b.Digest }) {
		return
	}
	e.enterView(nv.View)
	e.applyNewViewProposals(nv.View, want)
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
// new view, each counting as the new primary's prepare vote.
func (e *Engine) applyNewViewProposals(view uint64, proposals []PrePrepare) {
	primary := e.cfg.Cluster.Primary(view)
	e.nextSeq = max(e.nextSeq, e.lastDelivered)
	for _, p := range proposals {
		e.nextSeq = max(e.nextSeq, p.Seq)
		if p.Seq <= e.lastDelivered {
			continue
		}
		e.entries[p.Seq] = &entry{view: view, digest: p.Digest, batch: p.Batch, auths: p.Auths, prePrep: true,
			prepares: map[ids.ProcessID]bool{e.cfg.Replica: true, primary: true}, commits: map[ids.ProcessID]bool{}}
		if primary != e.cfg.Replica {
			for _, to := range e.others() {
				mac := e.cfg.Keys.MAC(e.cfg.Replica, to, phaseBytes('p', view, p.Seq, p.Digest))
				e.cfg.Send(to, &Prepare{View: view, Seq: p.Seq, Digest: p.Digest, MAC: mac})
			}
		}
	}
	e.reproposeKnown()
}

// reproposeKnown proposes, in one batch, the tracked requests that no
// undelivered entry holds (a new primary after a view change).
func (e *Engine) reproposeKnown() {
	if !e.IsPrimary() {
		return
	}
	inFlight := make(map[msg.RequestID]bool)
	for _, ent := range e.entries {
		for _, r := range ent.batch {
			inFlight[r.ID()] = true
		}
	}
	var batch []msg.Request
	var auths []authn.Authenticator
	for id, k := range e.knownReqs {
		if !inFlight[id] {
			batch = append(batch, k.req)
			auths = append(auths, k.auth)
		}
	}
	e.Propose(batch, auths)
}
