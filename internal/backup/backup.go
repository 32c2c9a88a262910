// Package backup implements Backup (§4.3), the Abstract instance with strong
// progress that composed protocols fall back to when the optimistic instances
// abort: it wraps a total-order (BFT) protocol, PBFT, and commits exactly k
// requests before aborting every subsequent one, where k grows exponentially
// across Backup instances to guarantee the liveness of the composition.
package backup

import (
	"slices"
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/pbft"
)

// KPolicy decides how many requests a Backup instance commits before
// aborting. backupIndex is the 0-based count of Backup instances that
// preceded this one in the composition; lowLoad reports whether the init
// history carried Chain's low-load flag.
type KPolicy func(backupIndex int, lowLoad bool) uint64

// ExponentialK returns the paper's default policy: k = initial * 2^index,
// capped at max, flattened to 1 when the previous instance aborted because of
// low load (so the composition returns to Quorum after a single request).
func ExponentialK(initial, max uint64) KPolicy {
	if initial == 0 {
		initial = 1
	}
	if max == 0 {
		max = 1 << 20
	}
	return func(backupIndex int, lowLoad bool) uint64 {
		if lowLoad {
			return 1
		}
		k := initial
		for i := 0; i < backupIndex && k < max; i++ {
			k *= 2
		}
		if k > max {
			k = max
		}
		return k
	}
}

// FixedK always commits exactly k requests, whatever the instance's index or
// the reason the previous instance aborted. compose's "pbft" descriptor uses
// FixedK(math.MaxUint64): a Backup instance that never switches away, i.e.
// plain PBFT.
func FixedK(k uint64) KPolicy {
	if k == 0 {
		k = 1
	}
	return func(int, bool) uint64 { return k }
}

// WrappedMessage carries a message of the underlying ordering protocol,
// tagged with the Backup instance it belongs to so replica hosts can route
// it. Its sender is the envelope's.
type WrappedMessage struct {
	Instance core.InstanceID
	Inner    any
}

// AbstractInstance implements core.InstanceMessage.
func (m *WrappedMessage) AbstractInstance() core.InstanceID { return m.Instance }

// ReplicaConfig configures the Backup replicas of a composition.
type ReplicaConfig struct {
	// K decides how many requests each Backup instance commits; nil selects
	// the paper's exponential policy, ExponentialK(1, 1<<16).
	K KPolicy
	// BackupIndex maps an instance number to the 0-based index of the
	// Backup instance within the composition (how many Backup instances
	// preceded it); it parameterizes the exponential K policy.
	BackupIndex func(core.InstanceID) int
	// ViewChangeTimeout is the wrapped PBFT engine's view-change timeout
	// (0 selects 500ms).
	ViewChangeTimeout time.Duration
}

// Replica implements the Backup functionality on one replica for one
// Abstract instance.
type Replica struct {
	h  *host.Host
	st *host.InstanceState

	engine *pbft.Engine
	// batcher coalesces admitted requests at the PBFT primary.
	batcher   *host.Batcher
	k         uint64
	committed uint64
}

// NewReplica returns a host.ProtocolFactory creating Backup replicas.
func NewReplica(cfg ReplicaConfig) host.ProtocolFactory {
	if cfg.K == nil {
		cfg.K = ExponentialK(1, 1<<16)
	}
	if cfg.BackupIndex == nil {
		cfg.BackupIndex = func(id core.InstanceID) int { return int(id / 2) }
	}
	if cfg.ViewChangeTimeout <= 0 {
		cfg.ViewChangeTimeout = 500 * time.Millisecond
	}
	return func(h *host.Host, st *host.InstanceState) host.ProtocolReplica {
		r := &Replica{h: h, st: st}
		r.k = cfg.K(cfg.BackupIndex(st.ID), st.InitLowLoad)
		r.engine = pbft.NewEngine(pbft.EngineConfig{
			Cluster: h.Cluster(),
			Replica: h.ID(),
			Keys:    h.Keys(),
			Send: func(to ids.ProcessID, m any) {
				h.Send(to, &WrappedMessage{Instance: st.ID, Inner: m})
			},
			Deliver: r.deliver,
			Admit: func(from ids.ProcessID, batch []msg.Request, auths []authn.Authenticator, digests []authn.Digest) bool {
				// PBFT orders no null operation (a view change fills a gap
				// with an empty batch), so none may use up this instance's k.
				return !slices.ContainsFunc(batch, func(r msg.Request) bool { return r.Client == ids.NullOp }) &&
					h.AdmitOrdered(st, from, batch, auths, digests)
			},
			ViewChangeTimeout: cfg.ViewChangeTimeout,
		})
		r.batcher = h.NewBatcher(r.propose)
		return r
	}
}

// K returns the number of requests this Backup instance commits before
// aborting (exposed for tests).
func (r *Replica) K() uint64 { return r.k }

// Handle implements host.ProtocolReplica. The primary proposes what its
// batcher holds as soon as every batch it proposed is delivered: a request
// that finds it idle is proposed at once, and requests that arrive while a
// batch is ordered wait for its delivery or the batcher's own triggers.
func (r *Replica) Handle(from ids.ProcessID, m any) {
	switch t := m.(type) {
	case *core.RequestMessage:
		r.onRequest(from, t)
	case *WrappedMessage:
		r.engine.HandleMessage(from, t.Inner)
	}
	if r.engine.Idle() {
		r.batcher.Flush()
	}
}

// ProtocolTick implements host.Ticker, driving the ordering protocol's
// timers (view changes).
func (r *Replica) ProtocolTick() {
	if r.st.Stopped {
		return
	}
	r.engine.Tick()
}

// onRequest verifies the client's authenticator and hands the request to
// the underlying ordering protocol: every replica tracks it, and the primary
// batches it for proposal.
func (r *Replica) onRequest(from ids.ProcessID, m *core.RequestMessage) {
	if !r.h.VerifyClientAuth(r.st, from, m.Req.Client, m.Auth, m.Req.Digest()) {
		return
	}
	if r.st.Stopped {
		// The instance already committed its k requests: return the signed
		// abort immediately rather than waiting for the client to panic (a
		// retransmission gets the abort too).
		signed := r.h.SignedAbortFor(r.st)
		r.h.Send(m.Req.Client, &core.AbortReply{Instance: r.st.ID, Timestamp: m.Req.Timestamp, Signed: signed})
		return
	}
	if dup, reply, cached := r.h.Retransmission(r.st, m.Req); dup {
		if cached {
			r.h.Send(m.Req.Client, r.h.BuildResp(r.st, m.Req, reply, true))
		}
		return
	}
	r.engine.Track(m.Req, m.Auth)
	if r.engine.IsPrimary() {
		r.batcher.Add(host.BatchItem{Req: m.Req, Auth: m.Auth})
	}
}

// propose hands one flushed batch, with its client authenticators, to the
// PBFT engine (a no-op unless this replica is the primary of a settled view).
// Once the instance stops, deliver aborts what it orders.
func (r *Replica) propose(items []host.BatchItem) {
	batch := make([]msg.Request, len(items))
	auths := make([]authn.Authenticator, len(items))
	for i, it := range items {
		batch[i], auths[i] = it.Req, it.Auth
	}
	r.engine.Propose(batch, auths)
}

// deliver consumes the total order produced by the wrapped protocol: the
// first k requests are committed (logged, executed, replied), every
// subsequent request aborts.
func (r *Replica) deliver(batch []msg.Request) {
	for _, req := range batch {
		if r.st.Contains(req.Digest()) {
			continue
		}
		if r.committed >= r.k || r.st.Stopped {
			r.h.StopInstance(r.st)
			signed := r.h.SignedAbortFor(r.st)
			r.h.Send(req.Client, &core.AbortReply{Instance: r.st.ID, Timestamp: req.Timestamp, Signed: signed})
			continue
		}
		if !r.st.TimestampFresh(req.Client, req.Timestamp) {
			continue
		}
		if _, ok := r.h.Log(r.st, req); !ok {
			continue
		}
		reply := r.h.Execute(r.st, req)
		r.committed++
		resp := r.h.BuildResp(r.st, req, reply, true)
		r.h.Send(req.Client, resp)
		if r.committed >= r.k {
			// The k-th request has been committed: stop and abort everything
			// that follows.
			r.h.StopInstance(r.st)
		}
	}
}

var _ host.ProtocolReplica = (*Replica)(nil)
var _ host.Ticker = (*Replica)(nil)
