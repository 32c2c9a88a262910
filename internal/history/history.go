// Package history implements digest histories, the abort-history
// extraction algorithm of the panicking subprotocol (Step P3 of §4.2.2), and
// the lightweight checkpoint subprotocol (LCS, §4.2.4) state kept by
// replicas.
//
// A history is carried as a DigestHistory, a sequence of request digests:
// the state-transfer optimization (§4.4) has ABORT messages and init
// histories carry digests rather than request bodies, and replicas keep the
// bodies in a separate store.
package history

import (
	"fmt"

	"abstractbft/internal/authn"
)

// DigestHistory is a sequence of request digests.
type DigestHistory []authn.Digest

// DigestStep extends a running history digest chain by one entry: the digest
// of a history is the left fold of DigestStep over its entries starting from
// the zero digest. The chained structure lets holders of an append-only
// history (InstanceState) maintain the digest incrementally — one step per
// appended request instead of re-folding the whole history per batch.
func DigestStep(acc, next authn.Digest) authn.Digest {
	return authn.HashAll(acc[:], next[:])
}

// Digest folds the digest history into a single digest (the DigestStep
// chain). The empty history has the zero digest.
func (d DigestHistory) Digest() authn.Digest {
	var acc authn.Digest
	for _, x := range d {
		acc = DigestStep(acc, x)
	}
	return acc
}

// IsPrefixOf reports whether d is a (non-strict) prefix of other.
func (d DigestHistory) IsPrefixOf(other DigestHistory) bool {
	if len(d) > len(other) {
		return false
	}
	for i := range d {
		if d[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the digest history.
func (d DigestHistory) Clone() DigestHistory { return append(DigestHistory(nil), d...) }

// Contains reports whether the digest history contains dg.
func (d DigestHistory) Contains(dg authn.Digest) bool {
	for _, x := range d {
		if x == dg {
			return true
		}
	}
	return false
}

// LongestCommonPrefix returns the longest common prefix of the given digest
// histories. The common prefix of zero histories is empty.
func LongestCommonPrefix(hs ...DigestHistory) DigestHistory {
	if len(hs) == 0 {
		return nil
	}
	prefix := hs[0].Clone()
	for _, h := range hs[1:] {
		n := len(prefix)
		if len(h) < n {
			n = len(h)
		}
		i := 0
		for i < n && prefix[i] == h[i] {
			i++
		}
		prefix = prefix[:i]
	}
	return prefix
}

// ReplicaReport is the history-bearing content of one replica's ABORT
// message: the replica's last stable checkpoint and the digests of the
// requests logged after that checkpoint.
type ReplicaReport struct {
	// CheckpointSeq is the number of requests covered by the replica's last
	// stable checkpoint (cc * CHK in the paper); 0 when no checkpoint has
	// been taken.
	CheckpointSeq uint64
	// CheckpointDigest is the digest of the checkpointed state.
	CheckpointDigest authn.Digest
	// Suffix holds the digests of the requests logged after CheckpointSeq,
	// in log order; the request at absolute position CheckpointSeq+i is
	// Suffix[i].
	Suffix DigestHistory
}

// Len returns the absolute length of the reported history.
func (r ReplicaReport) Len() uint64 { return r.CheckpointSeq + uint64(len(r.Suffix)) }

// At returns the digest at absolute position pos and whether the report
// vouches for that position explicitly. Positions below the checkpoint are
// covered by the checkpoint ("histories of length at most cc*CHK are
// considered prefixes of st_cc", §4.2.4) and are reported as implicit.
func (r ReplicaReport) At(pos uint64) (dg authn.Digest, explicit bool, covered bool) {
	if pos < r.CheckpointSeq {
		return authn.Digest{}, false, true
	}
	idx := pos - r.CheckpointSeq
	if idx < uint64(len(r.Suffix)) {
		return r.Suffix[idx], true, true
	}
	return authn.Digest{}, false, false
}

// ExtractResult is the outcome of abort-history extraction.
type ExtractResult struct {
	// BaseSeq is the checkpoint position the extracted history starts from:
	// the highest checkpoint sequence vouched for by at least f+1 reports
	// with the same checkpoint digest.
	BaseSeq uint64
	// BaseDigest is the digest of the checkpointed state at BaseSeq.
	BaseDigest authn.Digest
	// Suffix contains the extracted digests for positions BaseSeq, BaseSeq+1,
	// ... with duplicates removed per the dedup rule.
	Suffix DigestHistory
}

// TotalLen returns the absolute length of the extracted abort history.
func (e ExtractResult) TotalLen() uint64 { return e.BaseSeq + uint64(len(e.Suffix)) }

// Extract implements Step P3 of the panicking subprotocol: given at least
// 2f+1 replica reports, it builds the history AH such that AH[j] equals the
// value appearing at position j in at least f+1 reports, stops at the first
// position where no such value exists, and finally removes duplicate requests
// by taking the longest duplicate-free prefix.
func Extract(reports []ReplicaReport, f int) (ExtractResult, error) {
	if len(reports) < 2*f+1 {
		return ExtractResult{}, fmt.Errorf("history: need at least %d reports, have %d", 2*f+1, len(reports))
	}

	// Determine the base checkpoint: the highest checkpoint sequence that at
	// least f+1 reports agree on (same sequence and digest). Sequence 0 (no
	// checkpoint) is always agreed upon vacuously.
	var base ExtractResult
	type ckpt struct {
		seq uint64
		dg  authn.Digest
	}
	counts := make(map[ckpt]int)
	for _, r := range reports {
		counts[ckpt{r.CheckpointSeq, r.CheckpointDigest}]++
	}
	for c, n := range counts {
		if n >= f+1 && c.seq > base.BaseSeq {
			base.BaseSeq = c.seq
			base.BaseDigest = c.dg
		}
	}

	// Extract suffix positions by f+1 agreement. A report whose checkpoint
	// covers a position (pos < report.CheckpointSeq) counts as agreeing with
	// any candidate value for that position.
	var suffix DigestHistory
	seen := make(map[authn.Digest]struct{})
	for pos := base.BaseSeq; ; pos++ {
		votes := make(map[authn.Digest]int)
		implicit := 0
		for _, r := range reports {
			dg, explicit, covered := r.At(pos)
			if !covered {
				continue
			}
			if explicit {
				votes[dg]++
			} else {
				implicit++
			}
		}
		var winner authn.Digest
		found := false
		best := 0
		for dg, n := range votes {
			if n+implicit >= f+1 && n > best {
				winner = dg
				best = n
				found = true
			}
		}
		// The longest duplicate-free prefix ends at the first repeat.
		if _, dup := seen[winner]; !found || dup {
			break
		}
		seen[winner] = struct{}{}
		suffix = append(suffix, winner)
	}
	base.Suffix = suffix
	return base, nil
}
