// Package pbft implements the PBFT (Castro & Liskov) three-phase ordering
// protocol used throughout the repository: the total-order substrate wrapped
// by Backup (§4.3).
//
// The Engine type implements the replica-side protocol state machine
// (pre-prepare/prepare/commit, a simplified view change) and is driven by its
// embedder, which tracks admitted client requests (Track), proposes the
// batches its batcher flushes (Propose), and admits the client
// authenticators every pre-prepare carries (EngineConfig.Admit), so a
// Byzantine primary cannot order a request no client sent. Every replica
// recomputes a NEW-VIEW's proposals from its view changes and rejects one
// that differs.
//
// Simplifications relative to the original protocol: a view change's
// prepared entries carry no prepared certificate, only the signature of the
// replica that reports them, and there is no stable-checkpoint or watermark
// machinery: an engine forgets a sequence number once it delivers it, and
// ignores every later message at or below it.
package pbft

import (
	"encoding/binary"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// PrePrepare is the primary's ordering proposal for one batch.
type PrePrepare struct {
	View  uint64
	Seq   uint64
	Batch []msg.Request
	// Auths holds each request's client authenticator.
	Auths []authn.Authenticator
	// Digest is the digest of the batch (msg.Batch's).
	Digest authn.Digest
	// MAC authenticates the message from the primary to the destination.
	MAC authn.MAC
}

// Prepare is a backup's agreement to the primary's proposal. Like Commit it
// is the vote of the envelope's sender, whose MAC it carries.
type Prepare struct {
	View   uint64
	Seq    uint64
	Digest authn.Digest
	MAC    authn.MAC
}

// Commit is the final-phase vote.
type Commit struct {
	View   uint64
	Seq    uint64
	Digest authn.Digest
	MAC    authn.MAC
}

// PreparedEntry summarizes one prepared-but-possibly-undelivered batch inside
// a view-change message.
type PreparedEntry struct {
	Seq uint64
	// View is the view in which the batch was prepared.
	View   uint64
	Digest authn.Digest
	Batch  []msg.Request
	Auths  []authn.Authenticator
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
	buf := make([]byte, 20, 20+len(vc.Prepared)*(16+authn.DigestSize))
	binary.BigEndian.PutUint64(buf[0:8], vc.NewView)
	binary.BigEndian.PutUint32(buf[8:12], uint32(vc.Replica))
	binary.BigEndian.PutUint64(buf[12:20], vc.LastDelivered)
	for _, p := range vc.Prepared {
		buf = binary.BigEndian.AppendUint64(buf, p.Seq)
		buf = binary.BigEndian.AppendUint64(buf, p.View)
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

// phaseBytes returns the bytes MAC'd for pre-prepare/prepare/commit messages.
func phaseBytes(tag byte, view, seq uint64, digest authn.Digest) []byte {
	buf := make([]byte, 17+authn.DigestSize)
	buf[0] = tag
	binary.BigEndian.PutUint64(buf[1:9], view)
	binary.BigEndian.PutUint64(buf[9:17], seq)
	copy(buf[17:], digest[:])
	return buf
}
