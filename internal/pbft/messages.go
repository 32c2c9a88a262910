// Package pbft implements the PBFT (Castro & Liskov) three-phase ordering
// protocol used throughout the repository: as the total-order substrate
// wrapped by Backup (§4.3), and — with its own primary-rotation policy — as
// the core of the robust orderer Aardvark.
//
// The Engine type implements the replica-side protocol state machine
// (pre-prepare/prepare/commit, batching, a simplified view change) and is
// driven by its embedder: the embedder feeds it client requests and protocol
// messages and provides the send and deliver callbacks.
//
// Simplification relative to the original protocol (documented in DESIGN.md):
// the view-change message carries each replica's prepared entries and the new
// primary re-proposes the highest prepared batch per sequence number; the
// stable-checkpoint/watermark machinery is omitted because compositions bound
// instance lifetimes through switching.
package pbft

import (
	"encoding/binary"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// Request is a client request message authenticated for every replica. No
// protocol of the repository sends it any more; it keeps its wire tag.
type Request struct {
	Req  msg.Request
	Auth authn.Authenticator
}

// PrePrepare is the primary's ordering proposal for one batch.
type PrePrepare struct {
	View  uint64
	Seq   uint64
	Batch []msg.Request
	// Digest is the digest of the batch.
	Digest authn.Digest
	// MAC authenticates the message from the primary to the destination.
	MAC authn.MAC
}

// Prepare is a backup's agreement to the primary's proposal.
type Prepare struct {
	View    uint64
	Seq     uint64
	Digest  authn.Digest
	Replica ids.ProcessID
	MAC     authn.MAC
}

// Commit is the final-phase vote.
type Commit struct {
	View    uint64
	Seq     uint64
	Digest  authn.Digest
	Replica ids.ProcessID
	MAC     authn.MAC
}

// Reply is a replica's MAC'd reply to a client. No protocol of the
// repository sends it any more; it keeps its wire tag.
type Reply struct {
	View      uint64
	Replica   ids.ProcessID
	Client    ids.ProcessID
	Timestamp uint64
	Result    []byte
	MAC       authn.MAC
}

// PreparedEntry summarizes one prepared-but-possibly-undelivered batch inside
// a view-change message.
type PreparedEntry struct {
	Seq    uint64
	Digest authn.Digest
	Batch  []msg.Request
}

// ViewChange announces that a replica wants to move to a new view. It is
// signed so the new primary can prove the view change to the other replicas.
type ViewChange struct {
	NewView       uint64
	Replica       ids.ProcessID
	LastDelivered uint64
	Prepared      []PreparedEntry
	Sig           authn.Signature
}

// SignedBytes returns the bytes covered by the view-change signature.
func (vc *ViewChange) SignedBytes() []byte {
	buf := make([]byte, 20, 20+len(vc.Prepared)*(8+authn.DigestSize))
	binary.BigEndian.PutUint64(buf[0:8], vc.NewView)
	binary.BigEndian.PutUint32(buf[8:12], uint32(vc.Replica))
	binary.BigEndian.PutUint64(buf[12:20], vc.LastDelivered)
	for _, p := range vc.Prepared {
		var seq [8]byte
		binary.BigEndian.PutUint64(seq[:], p.Seq)
		buf = append(buf, seq[:]...)
		buf = append(buf, p.Digest[:]...)
	}
	return buf
}

// NewView is the new primary's proof that 2f+1 replicas agreed to change
// views, together with the re-proposals for prepared batches.
type NewView struct {
	View        uint64
	ViewChanges []ViewChange
	// Proposals are the pre-prepares re-issued in the new view.
	Proposals []PrePrepare
}

// BatchDigest computes the digest identifying an ordered batch.
func BatchDigest(batch []msg.Request) authn.Digest {
	parts := make([][]byte, len(batch))
	for i, r := range batch {
		d := r.Digest()
		parts[i] = append([]byte(nil), d[:]...)
	}
	return authn.HashAll(parts...)
}

// phaseBytes returns the bytes MAC'd for pre-prepare/prepare/commit messages.
func phaseBytes(tag byte, view, seq uint64, digest authn.Digest) []byte {
	buf := make([]byte, 17+authn.DigestSize)
	buf[0] = tag
	binary.BigEndian.PutUint64(buf[1:9], view)
	binary.BigEndian.PutUint64(buf[9:17], seq)
	copy(buf[17:], digest[:])
	return buf
}
