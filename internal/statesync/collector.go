package statesync

import (
	"fmt"

	"abstractbft/internal/authn"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// Adopted is the outcome of a completed state transfer: the agreed snapshot
// (AppState verified against the agreed AppDigest), the agreed suffix digests
// beyond it, and the request bodies matching those digests.
type Adopted struct {
	// Snap is the accepted snapshot; IsZero when the cluster has no stable
	// checkpoint yet (catch-up is suffix-only from the genesis state).
	Snap Snapshot
	// Suffix holds the f+1-agreed digests for positions Snap.Seq,
	// Snap.Seq+1, ...; it stops at the first position without agreement.
	Suffix history.DigestHistory
	// Bodies maps suffix digests to their verified request bodies (a body is
	// included only when its digest appears in Suffix).
	Bodies map[authn.Digest]msg.Request
}

// End returns the absolute position after the last agreed suffix entry.
func (a *Adopted) End() uint64 { return a.Snap.Seq + uint64(len(a.Suffix)) }

// Collector aggregates STATE responses until f+1 replicas agree on a
// snapshot. One response per replica is kept (newer responses replace older
// ones), so a Byzantine peer cannot stuff the vote by repeating itself.
type Collector struct {
	// need is the cluster's weak quorum (f+1): the votes a snapshot or a
	// suffix digest needs before at least one correct replica vouches for it.
	need int
	// expectSeq, when non-zero, pins the accepted snapshot to positions at or
	// below it (the fetcher is filling a gap below a known boundary; a
	// higher snapshot, however well-agreed, would leave the gap open).
	expectSeq uint64
	responses map[ids.ProcessID]*State
	// needPayload records, per Result evaluation, that an f+1-agreed
	// snapshot exists whose payload no response supplied (or the supplied
	// bytes failed the hash check): the fetcher should re-ask with a
	// different designated payload shipper.
	needPayload bool
}

// NeedPayload reports whether the last Result call found an f+1-agreed
// snapshot that could not be adopted only because its payload is missing or
// failed verification. The fetcher reacts by rotating the designated
// responder of the digest-first handshake.
func (c *Collector) NeedPayload() bool { return c.needPayload }

// NewCollector returns a collector that accepts a snapshot vouched for by
// the cluster's weak quorum (f+1) of distinct replicas.
func NewCollector(cluster ids.Cluster) *Collector {
	return &Collector{need: cluster.WeakQuorum(), responses: make(map[ids.ProcessID]*State)}
}

// ExpectAtOrBelow pins acceptance to snapshots covering at most seq.
func (c *Collector) ExpectAtOrBelow(seq uint64) { c.expectSeq = seq }

// Add records replica from's STATE response. Responses from clients are
// rejected; a replica's newer response replaces its older one — except that
// a digest-only response never erases an already-received payload for the
// same snapshot identity (the digest-first handshake rotates the designated
// payload shipper, so a peer legitimately answers digest-only after having
// shipped the payload).
func (c *Collector) Add(from ids.ProcessID, resp *State) error {
	if resp == nil || !from.IsReplica() {
		return fmt.Errorf("statesync: response from non-replica")
	}
	if uint64(len(resp.SuffixDigests)) > maxSuffix {
		return fmt.Errorf("statesync: suffix of %d digests exceeds bound", len(resp.SuffixDigests))
	}
	if old, ok := c.responses[from]; ok &&
		old.Snap.Seq == resp.Snap.Seq &&
		old.Snap.HistDigest == resp.Snap.HistDigest &&
		old.Snap.AppDigest == resp.Snap.AppDigest &&
		old.Snap.HasPayload() && !resp.Snap.HasPayload() {
		merged := *resp
		merged.Snap.AppState = old.Snap.AppState
		merged.Snap.Windows = old.Snap.Windows
		merged.Snap.Stripped = false
		resp = &merged
	}
	c.responses[from] = resp
	return nil
}

// maxSuffix bounds the per-response suffix so a Byzantine peer cannot force
// unbounded allocation; honest suffixes are bounded by the uncheckpointed
// backlog, far below this.
const maxSuffix = 1 << 20

// snapKey is the identity a snapshot group agrees on.
type snapKey struct {
	seq  uint64
	hist authn.Digest
	app  authn.Digest
}

// Result returns the adopted state once f+1 distinct replicas agree on a
// snapshot identity and at least one of them supplied bytes matching the
// agreed AppDigest. It prefers the highest agreed snapshot (within the
// ExpectAtOrBelow pin, when set). The suffix beyond the snapshot is extracted
// position by position, each requiring f+1 explicit digest votes so at least
// one correct replica vouches for every adopted entry.
func (c *Collector) Result() (*Adopted, bool) {
	groups := make(map[snapKey][]*State)
	for _, r := range c.responses {
		if c.expectSeq > 0 && r.Snap.Seq > c.expectSeq {
			continue
		}
		k := snapKey{seq: r.Snap.Seq, hist: r.Snap.HistDigest, app: r.Snap.AppDigest}
		groups[k] = append(groups[k], r)
	}
	var best *Snapshot
	found := false
	c.needPayload = false
	for k, members := range groups {
		if len(members) < c.need {
			continue
		}
		// The group agreed on the digests; trust the payload (bytes and
		// windows) only from a member whose serialization actually hashes to
		// the agreed AppDigest (a lying member of an honest group sends a
		// forged payload; digest-only members vouch for the identity but
		// carry nothing to adopt).
		supplied := false
		for _, m := range members {
			if k.seq == 0 || (m.Snap.HasPayload() && m.Snap.PayloadDigest() == k.app) {
				supplied = true
				if !found || k.seq > best.Seq {
					sn := m.Snap
					best = &sn
					found = true
				}
				break
			}
		}
		if !supplied && (!found || k.seq > best.Seq) {
			// f+1 replicas vouch for a snapshot nobody shipped (yet): the
			// fetcher should designate another member of the group.
			c.needPayload = true
		}
	}
	if !found {
		return nil, false
	}

	adopted := &Adopted{Snap: *best, Bodies: make(map[authn.Digest]msg.Request)}
	// Extract the agreed suffix: position pos is adopted only when f+1
	// responses vouch for one digest explicitly. Unlike abort-history
	// extraction, snapshot coverage (pos < resp.Snap.Seq) does NOT count as
	// implicit agreement here: an implicit vote would combine with a single
	// Byzantine explicit vote to push a forged digest (and body) past the
	// threshold. The f+1 members of the winning snapshot group all carry
	// explicit suffixes from the adopted boundary, so honest extraction
	// still reaches the live backlog.
	for pos := best.Seq; ; pos++ {
		votes := make(map[authn.Digest]int)
		for _, r := range c.responses {
			if pos >= r.Snap.Seq && pos-r.Snap.Seq < uint64(len(r.SuffixDigests)) {
				votes[r.SuffixDigests[pos-r.Snap.Seq]]++
			}
		}
		var winner authn.Digest
		bestVotes := 0
		ok := false
		for dg, n := range votes {
			if n >= c.need && n > bestVotes {
				winner = dg
				bestVotes = n
				ok = true
			}
		}
		if !ok {
			break
		}
		adopted.Suffix = append(adopted.Suffix, winner)
	}

	// Bodies self-verify: keep those whose digest appears in the agreed
	// suffix.
	want := make(map[authn.Digest]bool, len(adopted.Suffix))
	for _, d := range adopted.Suffix {
		want[d] = true
	}
	for _, r := range c.responses {
		for _, req := range r.SuffixRequests {
			if d := req.Digest(); want[d] {
				adopted.Bodies[d] = req.Clone()
			}
		}
	}
	return adopted, true
}
