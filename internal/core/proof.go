package core

import (
	"fmt"

	"abstractbft/internal/authn"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// BuildInitHistory assembles an InitHistory from at least 2f+1 signed ABORT
// messages collected by a panicking client (Step P3), running the extraction
// algorithm over the replica reports. The known request bodies of the caller
// are attached so the next instance can resolve digests locally when
// possible.
func BuildInitHistory(cluster ids.Cluster, from InstanceID, signed []SignedAbort, known []msg.Request) (InitHistory, error) {
	if len(signed) < cluster.Quorum() {
		return InitHistory{}, fmt.Errorf("core: need %d signed aborts, have %d", cluster.Quorum(), len(signed))
	}
	next := signed[0].Abort.Next
	reports := make([]history.ReplicaReport, 0, len(signed))
	seen := make(map[ids.ProcessID]bool)
	for _, s := range signed {
		if s.Abort.Instance != from {
			return InitHistory{}, fmt.Errorf("core: abort for instance %d, want %d", s.Abort.Instance, from)
		}
		if s.Abort.Next != next {
			return InitHistory{}, fmt.Errorf("core: inconsistent next instance in aborts: %d vs %d", s.Abort.Next, next)
		}
		if seen[s.Abort.Replica] {
			return InitHistory{}, fmt.Errorf("core: duplicate abort from replica %v", s.Abort.Replica)
		}
		seen[s.Abort.Replica] = true
		reports = append(reports, s.Abort.Report)
	}
	extract, err := history.Extract(reports, cluster.F)
	if err != nil {
		return InitHistory{}, err
	}
	ih := InitHistory{
		From:    from,
		For:     next,
		Extract: extract,
		Proof:   append([]SignedAbort(nil), signed...),
	}
	// Attach only the bodies whose digests actually appear in the extracted
	// suffix; anything else is useless to the next instance.
	for _, r := range known {
		if extract.Suffix.Contains(r.Digest()) {
			ih.Requests = append(ih.Requests, r)
		}
	}
	return ih, nil
}

// InitHasFlag reports whether a weak quorum (f+1) of the signed ABORT
// messages in the init history's proof carry the given abort flag; with at
// most f Byzantine replicas this guarantees at least one correct replica set
// it.
func InitHasFlag(ih *InitHistory, cluster ids.Cluster, flag uint32) bool {
	if ih == nil {
		return false
	}
	count := 0
	for i := range ih.Proof {
		if ih.Proof[i].Abort.Flags&flag != 0 {
			count++
		}
	}
	return count >= cluster.WeakQuorum()
}

// VerifyInitHistory checks that an init history is genuine: it carries at
// least 2f+1 correctly signed ABORT messages from distinct replicas of the
// previous instance, all declaring the instance being initialized as next(i),
// and the extraction algorithm applied to the carried reports yields exactly
// the claimed history. This is the verification replicas perform in Steps
// Z2+/Z3+/P2+ before adopting an init history, and it is what makes abort
// histories unforgeable by Byzantine clients.
func VerifyInitHistory(ks *authn.KeyStore, cluster ids.Cluster, forInstance InstanceID, ih *InitHistory) error {
	if ih == nil {
		return fmt.Errorf("%w: missing init history", ErrInvalidInit)
	}
	if ih.For != forInstance {
		return fmt.Errorf("%w: init history for instance %d, want %d", ErrInvalidInit, ih.For, forInstance)
	}
	if len(ih.Proof) < cluster.Quorum() {
		return fmt.Errorf("%w: proof has %d aborts, need %d", ErrInvalidInit, len(ih.Proof), cluster.Quorum())
	}
	reports := make([]history.ReplicaReport, 0, len(ih.Proof))
	seen := make(map[ids.ProcessID]bool)
	for i := range ih.Proof {
		s := &ih.Proof[i]
		if !s.Abort.Replica.IsReplica() || int(s.Abort.Replica) >= cluster.N {
			return fmt.Errorf("%w: abort from non-replica %v", ErrInvalidInit, s.Abort.Replica)
		}
		if s.Abort.Instance != ih.From {
			return fmt.Errorf("%w: abort for instance %d, want %d", ErrInvalidInit, s.Abort.Instance, ih.From)
		}
		if s.Abort.Next != forInstance {
			return fmt.Errorf("%w: abort declares next=%d, want %d", ErrInvalidInit, s.Abort.Next, forInstance)
		}
		if seen[s.Abort.Replica] {
			return fmt.Errorf("%w: duplicate abort from %v", ErrInvalidInit, s.Abort.Replica)
		}
		seen[s.Abort.Replica] = true
		if err := s.Verify(ks); err != nil {
			return fmt.Errorf("%w: abort from %v: %v", ErrInvalidInit, s.Abort.Replica, err)
		}
		reports = append(reports, s.Abort.Report)
	}
	extract, err := history.Extract(reports, cluster.F)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidInit, err)
	}
	if extract.BaseSeq != ih.Extract.BaseSeq || extract.BaseDigest != ih.Extract.BaseDigest {
		return fmt.Errorf("%w: base checkpoint mismatch", ErrInvalidInit)
	}
	if len(extract.Suffix) != len(ih.Extract.Suffix) {
		return fmt.Errorf("%w: extracted history length %d, claimed %d", ErrInvalidInit, len(extract.Suffix), len(ih.Extract.Suffix))
	}
	for i := range extract.Suffix {
		if extract.Suffix[i] != ih.Extract.Suffix[i] {
			return fmt.Errorf("%w: extracted history diverges at position %d", ErrInvalidInit, i)
		}
	}
	// Attached request bodies must match the digests they claim to resolve.
	for _, r := range ih.Requests {
		if !ih.Extract.Suffix.Contains(r.Digest()) {
			return fmt.Errorf("%w: attached request %v not part of init history", ErrInvalidInit, r.ID())
		}
	}
	return nil
}
