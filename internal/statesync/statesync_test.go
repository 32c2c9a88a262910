package statesync

import (
	"bytes"
	"slices"
	"testing"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

func testReq(ts uint64) msg.Request {
	return msg.Request{Client: ids.Client(0), Timestamp: ts, Command: []byte{byte(ts)}}
}

// vote is one replica's STATE response as the collector receives it: the
// response and its envelope's sender.
type vote struct {
	from ids.ProcessID
	*State
}

// add hands v to the collector.
func add(col *Collector, v vote) error { return col.Add(v.from, v.State) }

// testState builds an honest STATE response from replica from: a snapshot
// whose digests are internally consistent plus the given suffix requests.
func testState(from ids.ProcessID, seq uint64, appState []byte, suffix []msg.Request) vote {
	st := &State{
		Instance: 1,
		Snap:     NewSnapshot(seq, authn.Hash([]byte{byte(seq)}), appState, nil, nil),
	}
	for _, r := range suffix {
		st.SuffixDigests = append(st.SuffixDigests, r.Digest())
		st.SuffixRequests = append(st.SuffixRequests, r)
	}
	return vote{from, st}
}

func TestStoreRetentionAndLookup(t *testing.T) {
	s := NewStore(2)
	for _, seq := range []uint64{8, 16, 24} {
		s.Add(Snapshot{Seq: seq})
	}
	if s.Len() != 2 {
		t.Fatalf("retained %d snapshots, want 2", s.Len())
	}
	if _, ok := s.At(8); ok {
		t.Fatal("oldest snapshot should have been evicted")
	}
	if sn, ok := s.LatestAtOrBelow(20); !ok || sn.Seq != 16 {
		t.Fatalf("LatestAtOrBelow(20) = %v, %v", sn.Seq, ok)
	}
	if sn, ok := s.Latest(); !ok || sn.Seq != 24 {
		t.Fatalf("Latest = %v, %v", sn.Seq, ok)
	}
	s.Add(Snapshot{Seq: 16}) // out of order: ignored
	if sn, _ := s.Latest(); sn.Seq != 24 {
		t.Fatal("out-of-order Add replaced the latest snapshot")
	}
	s.PruneBelow(24)
	if s.Len() != 1 {
		t.Fatalf("prune kept %d snapshots", s.Len())
	}
	s.DropAbove(8)
	if s.Len() != 0 {
		t.Fatal("DropAbove kept a rolled-back snapshot")
	}
}

// TestCollectorRequiresAgreement: a single response (even an honest one) is
// not enough; f+1 matching snapshot identities are.
func TestCollectorRequiresAgreement(t *testing.T) {
	col := NewCollector(ids.NewCluster(1))
	appState := []byte("state-at-16")
	if err := add(col, testState(ids.Replica(0), 16, appState, nil)); err != nil {
		t.Fatalf("add: %v", err)
	}
	if _, ok := col.Result(); ok {
		t.Fatal("one vote must not reach agreement at f=1")
	}
	// A duplicate from the same replica must not count twice.
	add(col, testState(ids.Replica(0), 16, appState, nil))
	if _, ok := col.Result(); ok {
		t.Fatal("repeated votes from one replica must not reach agreement")
	}
	if err := col.Add(ids.Client(3), &State{}); err == nil {
		t.Fatal("client responses must be rejected")
	}
	add(col, testState(ids.Replica(1), 16, appState, nil))
	a, ok := col.Result()
	if !ok || a.Snap.Seq != 16 || string(a.Snap.AppState) != "state-at-16" {
		t.Fatalf("agreement not reached: %+v, %v", a, ok)
	}
}

// TestCollectorRejectsLyingSnapshotPeer: a Byzantine peer that claims the
// agreed digests but ships forged snapshot bytes must not have its bytes
// adopted, and a Byzantine minority claiming a different (higher) snapshot
// must not win however attractive its offer.
func TestCollectorRejectsLyingSnapshotPeer(t *testing.T) {
	appState := []byte("honest-state")
	honest := testState(ids.Replica(1), 16, appState, nil)

	// Liar 1: agrees on the snapshot identity but sends forged bytes.
	forged := testState(ids.Replica(0), 16, appState, nil)
	forged.Snap.AppState = []byte("forged-state")

	// Liar 2: claims a higher snapshot nobody corroborates.
	alone := testState(ids.Replica(2), 64, []byte("made-up"), nil)

	col := NewCollector(ids.NewCluster(1))
	add(col, forged)
	add(col, alone)
	if _, ok := col.Result(); ok {
		t.Fatal("forged + uncorroborated responses must not reach agreement")
	}
	add(col, honest)
	a, ok := col.Result()
	if !ok {
		t.Fatal("agreement should be reached once the honest peer answers")
	}
	if a.Snap.Seq != 16 {
		t.Fatalf("adopted seq %d, want the corroborated 16", a.Snap.Seq)
	}
	if string(a.Snap.AppState) != "honest-state" {
		t.Fatalf("adopted bytes %q from the lying peer", a.Snap.AppState)
	}
	if a.Snap.PayloadDigest() != a.Snap.AppDigest {
		t.Fatal("adopted payload does not hash to the agreed digest")
	}
}

// TestCollectorSuffixExtraction: the suffix beyond the snapshot is adopted
// position by position under f+1 *explicit* agreement — a response whose
// snapshot merely covers a position does not vote for it (an implicit vote
// would let one Byzantine explicit vote forge an entry) — and bodies are
// matched to agreed digests (a lying body is dropped).
func TestCollectorSuffixExtraction(t *testing.T) {
	appState := []byte("state")
	reqs := []msg.Request{testReq(1), testReq(2), testReq(3)}

	a := testState(ids.Replica(0), 16, appState, reqs)
	b := testState(ids.Replica(1), 16, appState, reqs[:2]) // shorter suffix
	// A third response with a higher snapshot covering positions 16..19: it
	// must NOT count as agreement for them.
	c := testState(ids.Replica(2), 20, []byte("later"), nil)
	// b also ships a body that matches no agreed digest: it must be dropped.
	b.SuffixRequests = append(b.SuffixRequests, testReq(99))

	col := NewCollector(ids.NewCluster(1))
	add(col, a)
	add(col, b)
	add(col, c)
	got, ok := col.Result()
	if !ok {
		t.Fatal("agreement not reached")
	}
	if got.Snap.Seq != 16 {
		t.Fatalf("adopted seq %d, want 16", got.Snap.Seq)
	}
	// Positions 16,17 have explicit votes from a+b. Position 18 has only
	// a's explicit vote (c covers it implicitly, which must not count —
	// otherwise a alone could forge the entry).
	if len(got.Suffix) != 2 {
		t.Fatalf("suffix %d entries, want 2", len(got.Suffix))
	}
	for i, r := range reqs[:2] {
		if got.Suffix[i] != r.Digest() {
			t.Fatalf("suffix digest %d mismatch", i)
		}
		body, ok := got.Bodies[r.Digest()]
		if !ok || !body.Equal(r) {
			t.Fatalf("body %d missing or wrong", i)
		}
	}
	if _, ok := got.Bodies[testReq(99).Digest()]; ok {
		t.Fatal("unagreed body adopted")
	}
	if got.End() != 18 {
		t.Fatalf("End() = %d, want 18", got.End())
	}
}

// TestCollectorSuffixForgeryResisted: one Byzantine explicit vote plus an
// honest higher snapshot must not push a forged suffix entry (and body)
// past the threshold.
func TestCollectorSuffixForgeryResisted(t *testing.T) {
	appState := []byte("state")
	honest1 := testState(ids.Replica(0), 16, appState, nil) // empty suffix
	honest2 := testState(ids.Replica(1), 16, appState, nil)
	higher := testState(ids.Replica(2), 24, []byte("later"), nil)
	forger := testState(ids.Replica(3), 16, appState, []msg.Request{testReq(66)})

	col := NewCollector(ids.NewCluster(1))
	add(col, honest1)
	add(col, honest2)
	add(col, higher)
	add(col, forger)
	got, ok := col.Result()
	if !ok {
		t.Fatal("agreement not reached")
	}
	if len(got.Suffix) != 0 {
		t.Fatalf("forged suffix entry adopted (%d entries)", len(got.Suffix))
	}
	if len(got.Bodies) != 0 {
		t.Fatal("forged body adopted")
	}
}

// TestCollectorDigestFirstHandshake: digest-only responses (the non-
// designated peers of the digest-first handshake) count toward agreement but
// carry nothing to adopt; the transfer completes once the one designated
// peer ships a payload matching the agreed digest, and NeedPayload tells the
// fetcher to rotate the designation until then.
func TestCollectorDigestFirstHandshake(t *testing.T) {
	appState := []byte("state-at-16")
	full := testState(ids.Replica(0), 16, appState, []msg.Request{testReq(1)})
	digestOnly1 := testState(ids.Replica(1), 16, appState, []msg.Request{testReq(1)})
	digestOnly1.Snap = digestOnly1.Snap.StripPayload()
	digestOnly2 := testState(ids.Replica(2), 16, appState, []msg.Request{testReq(1)})
	digestOnly2.Snap = digestOnly2.Snap.StripPayload()

	col := NewCollector(ids.NewCluster(1))
	add(col, digestOnly1)
	add(col, digestOnly2)
	if _, ok := col.Result(); ok {
		t.Fatal("digest-only agreement must not be adopted without a payload")
	}
	if !col.NeedPayload() {
		t.Fatal("NeedPayload must report the agreed-but-unshipped snapshot")
	}
	add(col, full)
	a, ok := col.Result()
	if !ok || string(a.Snap.AppState) != "state-at-16" {
		t.Fatalf("transfer did not complete after the designated payload: %+v, %v", a, ok)
	}
	if len(a.Suffix) != 1 {
		t.Fatalf("suffix lost under digest-first responses: %d entries", len(a.Suffix))
	}
}

// TestCollectorDigestFirstLyingDesignated: a designated peer shipping bytes
// that do not hash to the agreed digest must not be adopted; NeedPayload
// drives re-designation, and an honest payload then completes the transfer.
func TestCollectorDigestFirstLyingDesignated(t *testing.T) {
	appState := []byte("honest")
	liar := testState(ids.Replica(0), 16, appState, nil)
	liar.Snap.AppState = []byte("forged")
	digestOnly := testState(ids.Replica(1), 16, appState, nil)
	digestOnly.Snap = digestOnly.Snap.StripPayload()

	col := NewCollector(ids.NewCluster(1))
	add(col, liar)
	add(col, digestOnly)
	if _, ok := col.Result(); ok {
		t.Fatal("forged payload adopted")
	}
	if !col.NeedPayload() {
		t.Fatal("NeedPayload must flag the hash mismatch")
	}
	honest := testState(ids.Replica(2), 16, appState, nil)
	add(col, honest)
	a, ok := col.Result()
	if !ok || string(a.Snap.AppState) != "honest" {
		t.Fatalf("honest re-ship not adopted: %+v, %v", a, ok)
	}
}

// TestCollectorKeepsPayloadAcrossReplacement: after the designation rotates,
// the previously designated peer answers digest-only; its newer response
// must not erase the payload it already shipped.
func TestCollectorKeepsPayloadAcrossReplacement(t *testing.T) {
	appState := []byte("state-at-16")
	full := testState(ids.Replica(0), 16, appState, nil)
	again := testState(ids.Replica(0), 16, appState, nil)
	again.Snap = again.Snap.StripPayload()

	col := NewCollector(ids.NewCluster(1))
	add(col, full)
	add(col, again)
	digestOnly := testState(ids.Replica(1), 16, appState, nil)
	digestOnly.Snap = digestOnly.Snap.StripPayload()
	add(col, digestOnly)
	a, ok := col.Result()
	if !ok || string(a.Snap.AppState) != "state-at-16" {
		t.Fatalf("payload erased by digest-only replacement: %+v, %v", a, ok)
	}
}

// TestCollectorExpectAtOrBelow: a pinned transfer ignores higher snapshots
// even when f+1 agree on them (the fetcher needs the gap below its base
// checkpoint filled, not skipped).
func TestCollectorExpectAtOrBelow(t *testing.T) {
	appState := []byte("state")
	col := NewCollector(ids.NewCluster(1))
	col.ExpectAtOrBelow(16)
	add(col, testState(ids.Replica(0), 24, appState, nil))
	add(col, testState(ids.Replica(1), 24, appState, nil))
	if _, ok := col.Result(); ok {
		t.Fatal("snapshot above the pin must not be adopted")
	}
	add(col, testState(ids.Replica(2), 16, appState, nil))
	add(col, testState(ids.Replica(3), 16, appState, nil))
	a, ok := col.Result()
	if !ok || a.Snap.Seq != 16 {
		t.Fatalf("pinned agreement failed: %+v, %v", a, ok)
	}
}

// TestStoreDigestsOnFirstReadOut: a snapshot added without its payload digest
// stays undigested while the store is only asked where its boundaries are (the
// host's garbage collector), gets the digest when first read out (a peer's
// FETCH-STATE), and keeps it.
func TestStoreDigestsOnFirstReadOut(t *testing.T) {
	s := NewStore(2)
	windows := []ClientWindow{{Client: ids.Client(1), High: 5, Mask: 3}, {Client: ids.Client(0), High: 2, Mask: 1}}
	rings := []ClientRing{{Client: ids.Client(0), Timestamps: []uint64{1, 2}, Replies: [][]byte{[]byte("a"), []byte("b")}}}
	s.Add(Snapshot{Seq: 8, HistDigest: authn.Hash([]byte("h8")), AppState: []byte("state-8"), Windows: windows, Rings: rings})
	s.Add(Snapshot{Seq: 16, HistDigest: authn.Hash([]byte("h16")), AppState: []byte("state-16"), Windows: windows, Rings: rings})

	if seq, ok := s.BoundaryAtOrBelow(12); !ok || seq != 8 {
		t.Fatalf("BoundaryAtOrBelow(12) = %d, %v, want 8", seq, ok)
	}
	if _, ok := s.BoundaryAtOrBelow(7); ok {
		t.Fatal("BoundaryAtOrBelow(7) found a boundary below the oldest snapshot")
	}
	for i := range s.snaps {
		if !s.snaps[i].AppDigest.IsZero() {
			t.Fatalf("snapshot %d was digested by a boundary query", s.snaps[i].Seq)
		}
	}

	sn, ok := s.LatestAtOrBelow(12)
	if !ok || sn.Seq != 8 {
		t.Fatalf("LatestAtOrBelow(12) = seq %d, %v, want 8", sn.Seq, ok)
	}
	want := NewSnapshot(8, authn.Hash([]byte("h8")), []byte("state-8"), windows, rings).AppDigest
	if sn.AppDigest != want {
		t.Fatalf("read-out AppDigest = %v, want NewSnapshot's %v", sn.AppDigest, want)
	}
	if s.snaps[0].AppDigest != want {
		t.Fatal("the store did not keep the digest it computed")
	}
	if !s.snaps[1].AppDigest.IsZero() {
		t.Fatal("reading one snapshot out digested another")
	}
	if latest, _ := s.Latest(); latest.AppDigest != latest.PayloadDigest() || latest.AppDigest.IsZero() {
		t.Fatal("Latest handed out a snapshot without its payload digest")
	}
}

// countedView is a frozen application of known bytes that counts what the
// store does with it.
type countedView struct {
	state                []byte
	serialized, released *int
}

func (v countedView) Snapshot() []byte { *v.serialized++; return v.state }
func (v countedView) Release()         { *v.released++ }

// TestStoreOwnsFrozenViews: a snapshot added as a frozen view is serialized
// when first read out — to the snapshot NewSnapshot builds from the same
// bytes — and not again; the view is released exactly once, then or when the
// snapshot leaves the store unread by any way out (capacity, the floor pin's
// next-oldest, a rollback, garbage collection, a refused Add).
func TestStoreOwnsFrozenViews(t *testing.T) {
	const boundaries = 7
	serialized, released := make([]int, boundaries), make([]int, boundaries)
	frozen := func(n int) Snapshot {
		return Snapshot{Seq: uint64(8 * n), Frozen: countedView{[]byte{byte(n)}, &serialized[n], &released[n]}}
	}
	s := NewStore(3)
	s.Add(frozen(1))
	s.Add(frozen(2))
	s.Add(frozen(0)) // out of order: refused

	for range 2 {
		sn, ok := s.At(16)
		if !ok || sn.Frozen != nil || !bytes.Equal(sn.AppState, []byte{2}) || sn.AppDigest != NewSnapshot(16, authn.Digest{}, []byte{2}, nil, nil).AppDigest {
			t.Fatalf("At(16) = %+v, %v", sn, ok)
		}
	}
	if serialized[2] != 1 || released[2] != 1 {
		t.Fatalf("two read-outs serialized the view %d times and released it %d times, want once each", serialized[2], released[2])
	}

	s.SetFloor(10) // pins 8; capacity evicts the next-oldest instead
	s.Add(frozen(3))
	s.Add(frozen(4)) // evicts 16 (read out, view long gone)
	s.Add(frozen(5)) // evicts 24
	s.DropAbove(32)  // rolls 40 back
	s.Add(frozen(6))
	s.PruneBelow(48) // collects 8 and 32
	want := []int{1, 1, 1, 1, 1, 1, 0}
	if !slices.Equal(released, want) {
		t.Fatalf("views released %v times, want %v", released, want)
	}
	if seq, _ := s.BoundaryAtOrBelow(100); s.Len() != 1 || seq != 48 {
		t.Fatalf("%d snapshots retained, newest %d, want the one at 48", s.Len(), seq)
	}
	serialized[2] = 0
	if slices.Max(serialized) != 0 {
		t.Fatalf("unread snapshots were serialized: %v", serialized)
	}
}
