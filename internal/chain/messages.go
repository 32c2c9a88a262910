// Package chain implements Chain, the high-throughput Abstract instance used
// by Aliph (§5.3): replicas are organized in a pipeline (the chain order), a
// request travels from the head to the tail gathering chain-authenticator
// MACs, only the last f+1 replicas execute requests, and the tail replies to
// the client. Chain authenticators make the number of MAC operations at the
// bottleneck replica tend to 1 under batching.
//
// Chain guarantees progress when there are no server/link failures and no
// Byzantine clients (the same progress property as ZLight).
package chain

import (
	"encoding/binary"

	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/msg"
)

// Message is the CHAIN message of one client request at the two ends of the
// pipeline: the client sends it to the head with its chain authenticator
// (Step C1), and the tail answers with it, filled in with the request's
// position, reply and the last f+1 replicas' MACs (Step C4). Between
// replicas, requests travel as BatchMessage.
type Message struct {
	Instance core.InstanceID
	Req      msg.Request
	// Seq is the request's position, set on the tail's reply.
	Seq uint64
	// HasSeq marks a reply: it distinguishes an unassigned sequence number
	// from position 0, and the head accepts only messages without it.
	HasSeq bool
	// ReplyDigest is D(reply), set by the last f+1 replicas.
	ReplyDigest authn.Digest
	// Reply is the full application reply, set only by the tail.
	Reply []byte
	// HistoryDigest is D(LH_j) of the last replicas.
	HistoryDigest authn.Digest
	// HistoryDigests optionally carries the full digest history
	// (instrumented test runs only).
	HistoryDigests history.DigestHistory
	// CA is the chain authenticator accumulated along the pipeline.
	CA authn.ChainAuthenticator
	// Init carries the init history on the client's first invocation.
	Init *core.InitHistory
	// Feedback piggybacks R-Aliph client feedback (committed request
	// timestamps followed by issued request timestamps).
	Feedback []uint64
}

// AbstractInstance implements core.InstanceMessage.
func (m *Message) AbstractInstance() core.InstanceID { return m.Instance }

// CarriedInit implements core.InitCarrier.
func (m *Message) CarriedInit() *core.InitHistory { return m.Init }

// RequestTimestamp implements transport.RequestScoped: the tail's reply
// answers exactly one client request.
func (m *Message) RequestTimestamp() uint64 { return m.Req.Timestamp }

// BatchMessage is the batched CHAIN message travelling between replicas: the
// head coalesces client requests under the host's batch policy and forwards
// the whole batch down the pipeline, each replica authenticating the batch to
// its successor set with one set of MACs instead of one per request. The tail
// fans the batch back out as one Message per request, so the client protocol
// (Step C1/C4) is unchanged.
type BatchMessage struct {
	Instance core.InstanceID
	// Batch holds the ordered requests; request i occupies position Seq+i.
	Batch msg.Batch
	// Seq is the absolute position assigned by the head to Batch.Requests[0].
	Seq uint64
	// ClientCAs accumulates, per request, the chain-authenticator entries
	// involving that request's client: the client's MACs toward the first
	// f+1 replicas on the way in, and each executing replica's MAC toward
	// the client on the way out.
	ClientCAs []authn.ChainAuthenticator
	// ReplyDigests holds D(reply) per request, set by the last f+1 replicas.
	ReplyDigests []authn.Digest
	// HistoryDigest is D(LH_j) of the executing replicas after the whole
	// batch is appended.
	HistoryDigest authn.Digest
	// HistoryDigests optionally carries the full digest history
	// (instrumented test runs only).
	HistoryDigests history.DigestHistory
	// CA is the replica-hop chain authenticator over batch-level bytes.
	CA authn.ChainAuthenticator
	// Init forwards an init history so uninitialized replicas can
	// initialize.
	Init *core.InitHistory
}

// AbstractInstance implements core.InstanceMessage.
func (m *BatchMessage) AbstractInstance() core.InstanceID { return m.Instance }

// CarriedInit implements core.InitCarrier.
func (m *BatchMessage) CarriedInit() *core.InitHistory { return m.Init }

// ClientAuthBytes returns the bytes the client authenticates towards the
// first f+1 replicas: the instance and the request digest (the client does
// not know the sequence number).
func ClientAuthBytes(instance core.InstanceID, req msg.Request) []byte {
	var buf [8 + authn.DigestSize]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(instance))
	d := req.Digest()
	copy(buf[8:], d[:])
	return buf[:]
}

// TailAuthBytes returns the bytes authenticated by the last f+1 replicas
// (and verified by the client): instance, request digest, sequence number,
// reply digest, and local-history digest.
func TailAuthBytes(instance core.InstanceID, req msg.Request, seq uint64, replyDigest, historyDigest authn.Digest) []byte {
	buf := make([]byte, 16+3*authn.DigestSize)
	binary.BigEndian.PutUint64(buf[:8], uint64(instance))
	binary.BigEndian.PutUint64(buf[8:16], seq)
	d := req.Digest()
	copy(buf[16:], d[:])
	copy(buf[16+authn.DigestSize:], replyDigest[:])
	copy(buf[16+2*authn.DigestSize:], historyDigest[:])
	return buf
}

// batchOrderBytes returns the batch-level bytes authenticated by the
// first 2f replicas: instance, the position of the batch's first request, and
// the batch digest (computed once per hop by the caller).
func batchOrderBytes(instance core.InstanceID, batchDigest authn.Digest, seq uint64) []byte {
	var buf [16 + authn.DigestSize]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(instance))
	binary.BigEndian.PutUint64(buf[8:16], seq)
	copy(buf[16:], batchDigest[:])
	return buf[:]
}

// batchTailBytes returns the batch-level bytes authenticated by the last
// f+1 replicas toward their replica successors: instance, sequence, batch
// digest (computed once per hop by the caller), the fold of the per-request
// reply digests, and the post-batch local-history digest.
func batchTailBytes(instance core.InstanceID, batchDigest authn.Digest, seq uint64, replyDigests []authn.Digest, historyDigest authn.Digest) []byte {
	parts := make([][]byte, 0, len(replyDigests))
	for i := range replyDigests {
		parts = append(parts, replyDigests[i][:])
	}
	repliesDigest := authn.HashAll(parts...)
	buf := make([]byte, 16+3*authn.DigestSize)
	binary.BigEndian.PutUint64(buf[:8], uint64(instance))
	binary.BigEndian.PutUint64(buf[8:16], seq)
	copy(buf[16:], batchDigest[:])
	copy(buf[16+authn.DigestSize:], repliesDigest[:])
	copy(buf[16+2*authn.DigestSize:], historyDigest[:])
	return buf
}
