// Package backup implements Backup (§4.3), the Abstract instance with strong
// progress that composed protocols fall back to when the optimistic instances
// abort: it wraps a total-order (BFT) protocol — PBFT by default, Aardvark in
// R-Aliph — and commits exactly k requests before aborting every subsequent
// one, where k grows exponentially across Backup instances to guarantee the
// liveness of the composition.
package backup

import (
	"encoding/binary"
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

// RequestMessage is the client request of a Backup instance: it is sent to
// every replica so each can submit it to the underlying ordering protocol.
type RequestMessage struct {
	Instance core.InstanceID
	Req      msg.Request
	Init     *core.InitHistory
	Auth     authn.Authenticator
}

// AbstractInstance implements core.InstanceMessage.
func (m *RequestMessage) AbstractInstance() core.InstanceID { return m.Instance }

// CarriedInit implements core.InitCarrier.
func (m *RequestMessage) CarriedInit() *core.InitHistory { return m.Init }

// WrappedMessage carries a message of the underlying ordering protocol,
// tagged with the Backup instance it belongs to so replica hosts can route
// it.
type WrappedMessage struct {
	Instance core.InstanceID
	From     ids.ProcessID
	Inner    any
}

// AbstractInstance implements core.InstanceMessage.
func (m *WrappedMessage) AbstractInstance() core.InstanceID { return m.Instance }

// AuthBytes is the data clients authenticate for Backup requests.
func AuthBytes(instance core.InstanceID, req msg.Request) []byte {
	var buf [8 + authn.DigestSize]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(instance))
	d := req.Digest()
	copy(buf[8:], d[:])
	return buf[:]
}

// Orderer is the total-order protocol Backup wraps. The PBFT engine satisfies
// it; Aardvark provides its own implementation with robust primary rotation.
type Orderer interface {
	// SubmitRequest hands a client request to the ordering protocol.
	SubmitRequest(req msg.Request)
	// HandleMessage processes an ordering-protocol message.
	HandleMessage(from ids.ProcessID, m any)
	// Tick drives the ordering protocol's timers.
	Tick()
}

// OrdererFactory builds the ordering engine for one Backup instance. send
// transmits ordering-protocol messages (already wrapped for routing); deliver
// must be called with each ordered batch, in order.
type OrdererFactory func(h *host.Host, inst core.InstanceID, send func(to ids.ProcessID, m any), deliver func([]msg.Request)) Orderer

// PBFTOrderer returns an OrdererFactory building a plain PBFT engine with the
// given batch size and view-change timeout.
func PBFTOrderer(batchSize int, viewChangeTimeout time.Duration) OrdererFactory {
	return func(h *host.Host, inst core.InstanceID, send func(to ids.ProcessID, m any), deliver func([]msg.Request)) Orderer {
		return pbft.NewEngine(pbft.EngineConfig{
			Cluster:           h.Cluster(),
			Replica:           h.ID(),
			Keys:              h.Keys(),
			Send:              send,
			Deliver:           deliver,
			BatchSize:         batchSize,
			ViewChangeTimeout: viewChangeTimeout,
			Ops:               h.Ops(),
		})
	}
}

// ReplicaConfig configures the Backup replicas of a composition.
type ReplicaConfig struct {
	// K decides how many requests each Backup instance commits.
	K KPolicy
	// BackupIndex maps an instance number to the 0-based index of the
	// Backup instance within the composition (how many Backup instances
	// preceded it); it parameterizes the exponential K policy.
	BackupIndex func(core.InstanceID) int
	// Orderer builds the wrapped ordering protocol (PBFT by default).
	Orderer OrdererFactory
}

// Replica implements the Backup functionality on one replica for one
// Abstract instance.
type Replica struct {
	h   *host.Host
	st  *host.InstanceState
	cfg ReplicaConfig

	orderer   Orderer
	k         uint64
	committed uint64
}

// NewReplica returns a host.ProtocolFactory creating Backup replicas.
func NewReplica(cfg ReplicaConfig) host.ProtocolFactory {
	if cfg.K == nil {
		cfg.K = ExponentialK(1, 1<<20)
	}
	if cfg.BackupIndex == nil {
		cfg.BackupIndex = func(id core.InstanceID) int { return int(id / 2) }
	}
	if cfg.Orderer == nil {
		cfg.Orderer = PBFTOrderer(8, 500*time.Millisecond)
	}
	return func(h *host.Host, st *host.InstanceState) host.ProtocolReplica {
		r := &Replica{h: h, st: st, cfg: cfg}
		r.k = cfg.K(cfg.BackupIndex(st.ID), st.InitLowLoad)
		send := func(to ids.ProcessID, m any) {
			h.Send(to, &WrappedMessage{Instance: st.ID, From: h.ID(), Inner: m})
		}
		r.orderer = cfg.Orderer(h, st.ID, send, r.deliver)
		return r
	}
}

// K returns the number of requests this Backup instance commits before
// aborting (exposed for tests).
func (r *Replica) K() uint64 { return r.k }

// Handle implements host.ProtocolReplica.
func (r *Replica) Handle(from ids.ProcessID, m any) {
	switch t := m.(type) {
	case *RequestMessage:
		r.onRequest(from, t)
	case *WrappedMessage:
		r.orderer.HandleMessage(t.From, t.Inner)
	}
}

// ProtocolTick implements host.Ticker, driving the ordering protocol's
// timers (view changes).
func (r *Replica) ProtocolTick() {
	if r.st.Stopped {
		return
	}
	r.orderer.Tick()
}

// onRequest verifies the client's authenticator and submits the request to
// the underlying ordering protocol.
func (r *Replica) onRequest(from ids.ProcessID, m *RequestMessage) {
	if err := r.h.VerifyClientAuth(m.Auth, AuthBytes(r.st.ID, m.Req)); err != nil {
		return
	}
	if !r.st.TimestampFresh(m.Req.Client, m.Req.Timestamp) || r.h.AppliedStale(m.Req.Client, m.Req.Timestamp) {
		// Retransmission per the instance window or the host's applied
		// window (the cross-instance at-most-once gate): resend the cached
		// reply (or the abort if the instance already stopped).
		if r.st.Stopped {
			signed := r.h.SignedAbortFor(r.st)
			r.h.Send(m.Req.Client, &core.AbortReply{Instance: r.st.ID, Timestamp: m.Req.Timestamp, Signed: signed})
			return
		}
		if reply, ok := r.h.CachedReply(m.Req.Client, m.Req.Timestamp); ok {
			resp := r.h.BuildResp(r.st, m.Req, reply, true)
			r.h.Send(m.Req.Client, resp)
		}
		return
	}
	if r.st.Stopped {
		// The instance already committed its k requests: return the signed
		// abort immediately rather than waiting for the client to panic.
		signed := r.h.SignedAbortFor(r.st)
		r.h.Send(m.Req.Client, &core.AbortReply{Instance: r.st.ID, Timestamp: m.Req.Timestamp, Signed: signed})
		return
	}
	r.h.StoreRequest(m.Req)
	r.orderer.SubmitRequest(m.Req)
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
		if r.h.ID() == r.h.Cluster().Head() {
			r.h.Ops().CountRequest()
		}
		if r.committed >= r.k {
			// The k-th request has been committed: stop and abort everything
			// that follows.
			r.h.StopInstance(r.st)
		}
	}
}

var _ host.ProtocolReplica = (*Replica)(nil)
var _ host.Ticker = (*Replica)(nil)
