// Package zlight implements ZLight, the Abstract instance that mimics
// Zyzzyva's speculative common case (§4.2): a primary orders requests, all
// replicas speculatively execute them, and the client commits when it
// receives 3f+1 matching replies. ZLight guarantees progress when there are
// no server or link failures and no Byzantine clients; outside that common
// case it aborts through the shared panicking subprotocol.
//
// The request hot path is batched: the primary coalesces incoming client
// requests under the host's batch policy and orders a whole batch with a
// single ORDER message carrying one primary MAC, so the per-request MAC and
// message cost at the bottleneck replica shrinks with the batch size.
package zlight

import (
	"encoding/binary"

	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/msg"
)

// RequestMessage is the REQ message a client sends to the primary (Step Z1).
type RequestMessage struct {
	Instance core.InstanceID
	Req      msg.Request
	// Auth is the client's MAC authenticator over the request and instance,
	// with one entry per replica.
	Auth authn.Authenticator
}

// AbstractInstance implements core.InstanceMessage.
func (m *RequestMessage) AbstractInstance() core.InstanceID { return m.Instance }

// OrderMessage is the ORDER message the primary sends to the other replicas
// (Step Z2): an ordered batch of requests, the sequence number of the batch's
// first request, the clients' authenticators (one per request, so each
// replica can verify its own entry), and a single MAC from the primary
// covering the whole batch. A batch of one request is the degenerate,
// per-request case.
type OrderMessage struct {
	Instance core.InstanceID
	// Batch holds the ordered requests covered by this ORDER.
	Batch msg.Batch
	// Seq is the absolute position assigned to Batch.Requests[0]; request i
	// of the batch occupies position Seq+i.
	Seq uint64
	// Auths forwards, per request, the client's authenticator so each
	// replica can verify its own entry.
	Auths []authn.Authenticator
	// PrimaryMAC authenticates the ORDER (instance, sequence span, and batch
	// digest) from the primary to the destination replica.
	PrimaryMAC authn.MAC
}

// AbstractInstance implements core.InstanceMessage.
func (m *OrderMessage) AbstractInstance() core.InstanceID { return m.Instance }

// OrderBytes returns the bytes covered by the primary's single MAC in an
// ORDER message: the instance, the position of the batch's first request, and
// the batch digest.
//
//abstractbft:noalloc
func OrderBytes(instance core.InstanceID, batchDigest authn.Digest, seq uint64) (buf [16 + authn.DigestSize]byte) {
	binary.BigEndian.PutUint64(buf[:8], uint64(instance))
	binary.BigEndian.PutUint64(buf[8:16], seq)
	copy(buf[16:], batchDigest[:])
	return buf
}
