package history

import (
	"fmt"
	"testing"
	"testing/quick"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

func req(client int, ts uint64) msg.Request {
	return msg.Request{Client: ids.Client(client), Timestamp: ts, Command: []byte(fmt.Sprintf("c%d-%d", client, ts))}
}

// digests returns the digest history of the given requests.
func digests(reqs ...msg.Request) DigestHistory {
	out := make(DigestHistory, len(reqs))
	for i, r := range reqs {
		out[i] = r.Digest()
	}
	return out
}

func TestDigestHistoryPrefixAndLCP(t *testing.T) {
	a := digests(req(0, 1), req(0, 2), req(0, 3))
	b := digests(req(0, 1), req(0, 2))
	c := digests(req(0, 1), req(1, 9))

	if !b.IsPrefixOf(a) || a.IsPrefixOf(b) {
		t.Fatalf("prefix relation wrong")
	}
	lcp := LongestCommonPrefix(a, b, c)
	if len(lcp) != 1 {
		t.Fatalf("LCP length = %d, want 1", len(lcp))
	}
	if len(LongestCommonPrefix()) != 0 {
		t.Fatalf("LCP of nothing should be empty")
	}
	if got := LongestCommonPrefix(a); len(got) != len(a) {
		t.Fatalf("LCP of a single history should be itself")
	}
}

// TestExtractStopsAtDuplicate checks the dedup rule of Step P3: the
// extracted history is the longest prefix in which no request appears twice.
func TestExtractStopsAtDuplicate(t *testing.T) {
	r1, r2 := req(0, 1), req(0, 2)
	d := digests(r1, r2, r1, r2)
	res, err := Extract([]ReplicaReport{{Suffix: d}, {Suffix: d}, {Suffix: d}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suffix) != 2 {
		t.Fatalf("extracted %d entries, want 2 (the duplicate-free prefix)", len(res.Suffix))
	}
}

func TestExtractAgreement(t *testing.T) {
	// 2f+1 = 3 reports, f = 1. Two reports agree on [a b c]; the third has
	// diverged at position 2. Extraction must return [a b c]: positions 0 and
	// 1 have 3 votes, position 2 has 2 votes (f+1).
	a, b, c, x := req(0, 1), req(0, 2), req(0, 3), req(9, 9)
	full := DigestHistory{a.Digest(), b.Digest(), c.Digest()}
	div := DigestHistory{a.Digest(), b.Digest(), x.Digest()}
	reports := []ReplicaReport{{Suffix: full}, {Suffix: full}, {Suffix: div}}
	res, err := Extract(reports, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suffix) != 3 {
		t.Fatalf("extracted %d entries, want 3", len(res.Suffix))
	}
	for i, want := range full {
		if res.Suffix[i] != want {
			t.Fatalf("position %d extracted wrong digest", i)
		}
	}
}

func TestExtractStopsWithoutAgreement(t *testing.T) {
	a, x, y, z := req(0, 1), req(7, 7), req(8, 8), req(9, 9)
	reports := []ReplicaReport{
		{Suffix: DigestHistory{a.Digest(), x.Digest()}},
		{Suffix: DigestHistory{a.Digest(), y.Digest()}},
		{Suffix: DigestHistory{a.Digest(), z.Digest()}},
	}
	res, err := Extract(reports, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suffix) != 1 {
		t.Fatalf("extracted %d entries, want 1 (no agreement beyond position 0)", len(res.Suffix))
	}
}

func TestExtractNeedsQuorum(t *testing.T) {
	if _, err := Extract([]ReplicaReport{{}, {}}, 1); err == nil {
		t.Fatalf("extraction with fewer than 2f+1 reports must fail")
	}
}

func TestExtractWithCheckpoints(t *testing.T) {
	// Two reports have checkpointed up to position 2; one lags with an
	// explicit suffix from position 0. The extracted history must start at
	// the agreed checkpoint and keep the common suffix.
	a, b, c, d := req(0, 1), req(0, 2), req(0, 3), req(0, 4)
	ckptDigest := authn.Hash([]byte("state-after-2"))
	lag := ReplicaReport{Suffix: DigestHistory{a.Digest(), b.Digest(), c.Digest(), d.Digest()}}
	fast := ReplicaReport{CheckpointSeq: 2, CheckpointDigest: ckptDigest, Suffix: DigestHistory{c.Digest(), d.Digest()}}
	res, err := Extract([]ReplicaReport{lag, fast, fast}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseSeq != 2 || res.BaseDigest != ckptDigest {
		t.Fatalf("base checkpoint not adopted: seq=%d", res.BaseSeq)
	}
	if len(res.Suffix) != 2 || res.Suffix[0] != c.Digest() || res.Suffix[1] != d.Digest() {
		t.Fatalf("suffix after checkpoint wrong: %d entries", len(res.Suffix))
	}
	if res.TotalLen() != 4 {
		t.Fatalf("total length = %d, want 4", res.TotalLen())
	}
}

// Property: every commit-history-like prefix of the reports that f+1 agree on
// survives extraction (abort histories contain committed requests).
func TestExtractContainsAgreedPrefixQuick(t *testing.T) {
	f := 1
	prop := func(nCommon uint8, tails [3]uint8) bool {
		common := int(nCommon % 20)
		var reports []ReplicaReport
		var prefix DigestHistory
		for i := 0; i < common; i++ {
			prefix = append(prefix, req(0, uint64(i+1)).Digest())
		}
		for r := 0; r < 3; r++ {
			suffix := prefix.Clone()
			for j := 0; j < int(tails[r]%4); j++ {
				suffix = append(suffix, req(10+r, uint64(100+j)).Digest())
			}
			reports = append(reports, ReplicaReport{Suffix: suffix})
		}
		res, err := Extract(reports, f)
		if err != nil {
			return false
		}
		return prefix.IsPrefixOf(res.Suffix)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointStateStability(t *testing.T) {
	cs := NewCheckpointState(4, 10)
	if _, ok := cs.ShouldCheckpoint(9); ok {
		t.Fatalf("checkpoint should not trigger below the interval")
	}
	cc, ok := cs.ShouldCheckpoint(10)
	if !ok || cc != 1 {
		t.Fatalf("checkpoint at 10 requests: cc=%d ok=%v", cc, ok)
	}
	d := authn.Hash([]byte("state"))
	for i := 0; i < 3; i++ {
		if cs.Record(ids.Replica(i), 1, d) {
			t.Fatalf("checkpoint stable before all replicas reported")
		}
	}
	if !cs.Record(ids.Replica(3), 1, d) {
		t.Fatalf("checkpoint not stable after all replicas reported")
	}
	if cs.StableSeq() != 10 || cs.StableDigest() != d || cs.StableCounter() != 1 {
		t.Fatalf("stable checkpoint state wrong")
	}
	// A divergent digest prevents stability.
	cs2 := NewCheckpointState(2, 10)
	cs2.Record(ids.Replica(0), 1, d)
	if cs2.Record(ids.Replica(1), 1, authn.Hash([]byte("other"))) {
		t.Fatalf("checkpoint became stable despite divergent digests")
	}
	cs.Reset()
	if cs.StableSeq() != 0 || cs.StableCounter() != 0 {
		t.Fatalf("reset did not clear state")
	}
}

// pendingVotes counts the votes CheckpointState holds pending.
func pendingVotes(c *CheckpointState) int {
	n := 0
	for _, m := range c.pending {
		n += len(m)
	}
	return n
}

// TestCheckpointVotesBounded floods one replica's vote state with a vote
// for every counter a faulty replica can name: the pending votes stay within
// n·maxPendingVotes, a replica outside the cluster holds none, the correct
// replicas' votes are untouched, and a checkpoint past the flood still
// becomes stable once the faulty replica votes like the rest.
func TestCheckpointVotesBounded(t *testing.T) {
	const n, last = 4, 200_001
	cs := NewCheckpointState(n, 4)
	junk := authn.Hash([]byte("junk"))
	d := authn.Hash([]byte("state"))
	for cc := uint64(2); cc <= last; cc++ {
		cs.Record(ids.Replica(3), cc, junk)
		cs.Record(ids.Replica(n+7), cc, junk)
		if cc == last/2 {
			for i := 0; i < n-1; i++ {
				cs.Record(ids.Replica(i), 1, d)
			}
		}
	}
	if got := pendingVotes(cs); got > n*maxPendingVotes {
		t.Fatalf("flood left %d votes pending (%d counters), want at most %d", got, len(cs.pending), n*maxPendingVotes)
	}
	if got := len(cs.pending[1]); got != n-1 {
		t.Fatalf("counter 1 holds %d votes of the correct replicas, want %d", got, n-1)
	}
	if cs.StableCounter() != 0 {
		t.Fatalf("flood made counter %d stable", cs.StableCounter())
	}
	for i := 0; i < n; i++ {
		if stable := cs.Record(ids.Replica(i), last+1, d); stable != (i == n-1) {
			t.Fatalf("vote %d for counter %d: stable=%v", i, last+1, stable)
		}
	}
	if cs.StableCounter() != last+1 || len(cs.pending) != 0 || pendingVotes(cs) != 0 {
		t.Fatalf("stable counter %d with %d counters pending, want %d and none", cs.StableCounter(), len(cs.pending), last+1)
	}
}

// TestCheckpointLaggingReplicaWithinCap lets three replicas run
// maxPendingVotes checkpoints ahead of the fourth: when it catches up, each
// of those checkpoints becomes stable in turn, because no vote a correct
// replica still needs was dropped.
func TestCheckpointLaggingReplicaWithinCap(t *testing.T) {
	const n = 4
	cs := NewCheckpointState(n, 4)
	digest := func(cc uint64) authn.Digest { return authn.HashAll([]byte("state"), []byte{byte(cc)}) }
	for cc := uint64(1); cc <= maxPendingVotes; cc++ {
		for i := 0; i < n-1; i++ {
			if cs.Record(ids.Replica(i), cc, digest(cc)) {
				t.Fatalf("counter %d stable without the lagging replica", cc)
			}
		}
	}
	for cc := uint64(1); cc <= maxPendingVotes; cc++ {
		if !cs.Record(ids.Replica(n-1), cc, digest(cc)) {
			t.Fatalf("counter %d not stable once the lagging replica voted", cc)
		}
	}
	if len(cs.pending) != 0 || pendingVotes(cs) != 0 {
		t.Fatalf("%d counters still pending", len(cs.pending))
	}
	// Beyond the cap the oldest votes go, and a newer checkpoint is what
	// becomes stable.
	for cc := uint64(maxPendingVotes + 1); cc <= 3*maxPendingVotes; cc++ {
		for i := 0; i < n-1; i++ {
			cs.Record(ids.Replica(i), cc, digest(cc))
		}
	}
	if cs.Record(ids.Replica(n-1), maxPendingVotes+1, digest(maxPendingVotes+1)) {
		t.Fatalf("a checkpoint whose votes were dropped became stable")
	}
	if !cs.Record(ids.Replica(n-1), 3*maxPendingVotes, digest(3*maxPendingVotes)) {
		t.Fatalf("the newest checkpoint did not become stable")
	}
}
