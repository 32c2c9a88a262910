package core

import (
	"encoding/binary"

	"abstractbft/internal/authn"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// InstanceMessage is implemented by every protocol message that belongs to a
// specific Abstract instance; replica hosts use it to dispatch messages.
type InstanceMessage interface {
	AbstractInstance() InstanceID
}

// ClientAuthBytes returns the bytes a client authenticates when invoking an
// instance, in every protocol: the instance number, then the request digest
// (for a client-side batch, the batch digest). The client does not know the
// request's position, so it is not covered.
//
//abstractbft:noalloc
func ClientAuthBytes(instance InstanceID, digest authn.Digest) (buf [8 + authn.DigestSize]byte) {
	binary.BigEndian.PutUint64(buf[:8], uint64(instance))
	copy(buf[8:], digest[:])
	return buf
}

// RequestMessage is the REQ message with which a client invokes ZLight (Step
// Z1, to the primary), Quorum (Step Q1) and Backup (to every replica). Every
// replica admits it through the same check: the authenticator is Req.Client's
// own and its entry verifies over ClientAuthBytes(Instance, Req.Digest()).
type RequestMessage struct {
	Instance InstanceID
	Req      msg.Request
	// Auth is the client's MAC authenticator, one entry per replica.
	Auth authn.Authenticator
}

// AbstractInstance implements InstanceMessage.
func (m *RequestMessage) AbstractInstance() InstanceID { return m.Instance }

// NewRequest records the invocation of instance with req (and its init
// history) with the specification checker, and builds the REQ: the request is
// hashed once, and the authenticator carries one entry per replica.
func (e ClientEnv) NewRequest(instance InstanceID, req msg.Request, init *InitHistory) *RequestMessage {
	if e.Checker != nil {
		e.Checker.RecordInvoke(req)
		e.Checker.RecordInit(instance, init)
	}
	authBytes := ClientAuthBytes(instance, req.Digest())
	auth := e.Keys.NewAuthenticator(e.ID, e.Cluster.Replicas(), authBytes[:])
	return &RequestMessage{Instance: instance, Req: req, Auth: auth}
}

// InitMessage hands instance Instance its init history (§3.3), and is the
// only message that carries one. The client's ACP loop multicasts it to every
// replica when it switches to the instance and again before each PANIC round
// (Step P1+); a replica that activates the instance from it forwards it once
// to its peers, before any message of the instance.
type InitMessage struct {
	Instance InstanceID
	Init     InitHistory
}

// AbstractInstance implements InstanceMessage.
func (m *InitMessage) AbstractInstance() InstanceID { return m.Instance }

// PanicMessage is the PANIC message a client sends to all replicas when it
// fails to commit a request in time (Step P1). A client that invoked the
// instance with an init history re-sends its InitMessage ahead of each PANIC
// round, so uninitialized replicas can initialize before aborting (Step P2+).
type PanicMessage struct {
	Instance  InstanceID
	Client    ids.ProcessID
	Timestamp uint64
}

// AbstractInstance implements InstanceMessage.
func (m *PanicMessage) AbstractInstance() InstanceID { return m.Instance }

// Abort flags carried by ABORT messages; they do not affect the Abstract
// specification but let the next instance adapt its configuration.
const (
	// AbortFlagLowLoad marks an abort caused by Chain's low-load
	// optimization (§5.4): the next Backup instance then commits a single
	// request before switching onward to Quorum.
	AbortFlagLowLoad uint32 = 1 << iota
)

// AbortMessage is the signed ABORT message a replica sends in response to a
// PANIC (Step P2): the replica's history report and the identity of the next
// instance.
type AbortMessage struct {
	Instance  InstanceID
	Replica   ids.ProcessID
	Timestamp uint64
	Next      InstanceID
	Flags     uint32
	Report    history.ReplicaReport
}

// AbstractInstance implements InstanceMessage.
func (m *AbortMessage) AbstractInstance() InstanceID { return m.Instance }

// SignedBytes returns the deterministic encoding of the fields covered by the
// replica's signature. The client timestamp is deliberately excluded so that
// the ABORT messages a replica sends to different panicking clients carry the
// same signature payload (the replica sends "the same abort message for all
// subsequent requests").
func (m *AbortMessage) SignedBytes() []byte {
	buf := make([]byte, 32, 32+authn.DigestSize*(1+len(m.Report.Suffix)))
	binary.BigEndian.PutUint64(buf[0:8], uint64(m.Instance))
	binary.BigEndian.PutUint32(buf[8:12], uint32(m.Replica))
	binary.BigEndian.PutUint64(buf[12:20], uint64(m.Next))
	binary.BigEndian.PutUint64(buf[20:28], m.Report.CheckpointSeq)
	binary.BigEndian.PutUint32(buf[28:32], m.Flags)
	buf = append(buf, m.Report.CheckpointDigest[:]...)
	for _, d := range m.Report.Suffix {
		buf = append(buf, d[:]...)
	}
	return buf
}

// SignedAbort is an ABORT message together with the sending replica's
// signature over SignedBytes.
type SignedAbort struct {
	Abort AbortMessage
	Sig   authn.Signature
}

// Verify checks the signature of the signed abort message.
func (s *SignedAbort) Verify(ks *authn.KeyStore) error {
	return ks.VerifySignature(s.Abort.Replica, s.Abort.SignedBytes(), s.Sig)
}

// AbortReply is the message carrying a SignedAbort from a replica to a
// panicking client.
type AbortReply struct {
	Instance  InstanceID
	Timestamp uint64
	Signed    SignedAbort
}

// AbstractInstance implements InstanceMessage.
func (m *AbortReply) AbstractInstance() InstanceID { return m.Instance }

// CheckpointMessage is the LCS checkpoint exchange message (§4.2.4).
type CheckpointMessage struct {
	// From identifies the sending replica.
	From ids.ProcessID
	// AbstractID is the instance the checkpoint belongs to.
	AbstractID InstanceID
	// Counter is the checkpoint counter cc.
	Counter uint64
	// StateDigest is the digest of the replica state after cc*CHK requests.
	StateDigest authn.Digest
}

// AbstractInstance implements InstanceMessage.
func (m *CheckpointMessage) AbstractInstance() InstanceID { return m.AbstractID }

// FetchRequest asks another replica for the bodies of requests whose digests
// appear in an init history but are missing locally (§4.4, inter-replica
// state transfer of missing requests).
type FetchRequest struct {
	Instance InstanceID
	From     ids.ProcessID
	Digests  []authn.Digest
}

// AbstractInstance implements InstanceMessage.
func (m *FetchRequest) AbstractInstance() InstanceID { return m.Instance }

// FetchResponse returns the request bodies a replica knows for a
// FetchRequest.
type FetchResponse struct {
	Instance InstanceID
	From     ids.ProcessID
	Requests []msg.Request
}

// AbstractInstance implements InstanceMessage.
func (m *FetchResponse) AbstractInstance() InstanceID { return m.Instance }

// RespMessage is the speculative reply message shared by ZLight and Quorum
// (Step Z3/Q2): the application reply (or its digest for all but one
// designated replica), the digest of the replica's local history, and the
// request timestamp, authenticated with a MAC for the client.
type RespMessage struct {
	Instance  InstanceID
	Replica   ids.ProcessID
	Client    ids.ProcessID
	Timestamp uint64
	// Reply is the full application reply (designated replica) or nil.
	Reply []byte
	// ReplyDigest is the digest of the application reply.
	ReplyDigest authn.Digest
	// HistoryDigest is D(LH_j), the digest of the replica's local history.
	HistoryDigest authn.Digest
	// HistoryLen is the length of the replica's local history; used together
	// with HistoryDigest by clients to detect divergence early in tests.
	HistoryLen uint64
	// HistoryDigests optionally carries the full digest history when history
	// instrumentation is enabled (test builds only).
	HistoryDigests history.DigestHistory
	// MAC authenticates the message from Replica to Client.
	MAC authn.MAC
}

// AbstractInstance implements InstanceMessage.
func (m *RespMessage) AbstractInstance() InstanceID { return m.Instance }

// RespMACLen is the size of the MAC input of a RESP message.
const RespMACLen = 28 + 2*authn.DigestSize

// MACBytes returns the bytes covered by the RESP message's MAC.
//
//abstractbft:noalloc
func (m *RespMessage) MACBytes() (buf [RespMACLen]byte) {
	binary.BigEndian.PutUint64(buf[0:8], uint64(m.Instance))
	binary.BigEndian.PutUint32(buf[8:12], uint32(m.Replica))
	binary.BigEndian.PutUint64(buf[12:20], m.Timestamp)
	binary.BigEndian.PutUint64(buf[20:28], m.HistoryLen)
	copy(buf[28:], m.ReplyDigest[:])
	copy(buf[28+authn.DigestSize:], m.HistoryDigest[:])
	return buf
}

// RequestTimestamp implements transport.RequestScoped: a RESP answers exactly
// one client request, so a demultiplexed client routes it to the invocation
// that owns the timestamp.
func (m *RespMessage) RequestTimestamp() uint64 { return m.Timestamp }
