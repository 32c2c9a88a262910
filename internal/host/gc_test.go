package host

import (
	"fmt"
	"testing"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// gcHost builds a single-replica host (checkpoints stabilize on the spot)
// whose instance can be driven directly.
func gcHost(t *testing.T, interval int, disableGC bool) (*Host, *InstanceState) {
	t.Helper()
	net := transport.NewLocal(transport.Options{})
	t.Cleanup(net.Close)
	h := New(Config{
		Cluster:  ids.NewCluster(0),
		Replica:  ids.Replica(0),
		Keys:     authn.NewKeyStore("gc-test"),
		App:      app.NewKVStore(),
		Endpoint: net.Endpoint(ids.Replica(0)),
		NewProtocol: func(h *Host, st *InstanceState) ProtocolReplica {
			return nopReplica{}
		},
		CheckpointInterval:  interval,
		InstrumentHistories: disableGC,
	})
	st := h.Bootstrap()
	if st == nil {
		t.Fatal("bootstrap failed")
	}
	return h, st
}

type nopReplica struct{}

func (nopReplica) Handle(from ids.ProcessID, m any) {}

func kvReq(ts uint64) msg.Request {
	return msg.Request{
		Client:    ids.Client(0),
		Timestamp: ts,
		Command:   app.EncodeKVPut(fmt.Sprintf("k%d", ts), fmt.Sprintf("v%d", ts)),
	}
}

func drive(t *testing.T, h *Host, st *InstanceState, from, to uint64) {
	t.Helper()
	for ts := from; ts <= to; ts++ {
		req := kvReq(ts)
		ok := false
		h.Locked(func() {
			if _, logged := h.LogBatch(st, msg.BatchOf(req)); logged {
				h.ExecuteBatch(st, msg.BatchOf(req))
				ok = true
			}
		})
		if !ok {
			t.Fatalf("log rejected at ts %d", ts)
		}
	}
}

// TestGCTrimPreservesDigests drives a host across several checkpoint
// boundaries and checks the GC boundary conditions: storage below the stable
// checkpoint is trimmed, while the history digest, the absolute length, the
// prefix digests at and above the boundary, and the abort report suffix are
// bit-identical to the untrimmed run.
func TestGCTrimPreservesDigests(t *testing.T) {
	const interval, n = 8, 29
	h, st := gcHost(t, interval, false)
	ref, refSt := gcHost(t, interval, true)

	drive(t, h, st, 1, n)
	drive(t, ref, refSt, 1, n)

	stable := st.Checkpoint.StableSeq()
	if want := uint64(n/interval) * interval; stable != want {
		t.Fatalf("stable checkpoint at %d, want %d", stable, want)
	}
	if st.Trimmed() != stable {
		t.Fatalf("trimmed %d, want the stable seq %d", st.Trimmed(), stable)
	}
	if got := len(st.Digests); uint64(got) != uint64(n)-stable {
		t.Fatalf("retained %d digests, want %d", got, uint64(n)-stable)
	}
	if refSt.Trimmed() != 0 || len(refSt.Digests) != n {
		t.Fatalf("GC-off host trimmed anyway (%d, %d)", refSt.Trimmed(), len(refSt.Digests))
	}

	// Observable digests must be unchanged by trimming.
	if st.AbsLen() != refSt.AbsLen() {
		t.Fatalf("AbsLen %d diverged from untrimmed %d", st.AbsLen(), refSt.AbsLen())
	}
	if st.HistoryDigest() != refSt.HistoryDigest() {
		t.Fatal("history digest changed by trimming")
	}
	for idx := stable; idx <= uint64(n); idx++ {
		if st.PrefixDigest(idx) != refSt.PrefixDigest(idx) {
			t.Fatalf("prefix digest at %d changed by trimming", idx)
		}
	}
	// A prefix query inside the trimmed region reports the trim fold (it is
	// unreachable through checkpointing, which only moves forward).
	if st.PrefixDigest(stable-1) != st.trimAcc {
		t.Fatal("prefix digest below the trim boundary should report the trim fold")
	}

	// The abort report carries the suffix from the stable checkpoint, which
	// trimming must retain exactly.
	rep := h.signedAbort(st).Abort.Report
	refRep := ref.signedAbort(refSt).Abort.Report
	if rep.CheckpointSeq != stable || refRep.CheckpointSeq != stable {
		t.Fatalf("report checkpoints %d/%d, want %d", rep.CheckpointSeq, refRep.CheckpointSeq, stable)
	}
	if len(rep.Suffix) != len(refRep.Suffix) {
		t.Fatalf("report suffix %d entries, untrimmed %d", len(rep.Suffix), len(refRep.Suffix))
	}
	for i := range rep.Suffix {
		if rep.Suffix[i] != refRep.Suffix[i] {
			t.Fatalf("report suffix diverges at %d", i)
		}
	}
}

// TestGCReleasesBodiesAndSnapshots checks that request bodies below the
// stable checkpoint are released, snapshots below it are pruned, and both
// stay bounded as the run grows — while the GC-off host grows linearly.
func TestGCReleasesBodiesAndSnapshots(t *testing.T) {
	const interval = 8
	h, st := gcHost(t, interval, false)
	ref, refSt := gcHost(t, interval, true)
	drive(t, h, st, 1, 100)
	drive(t, ref, refSt, 1, 100)

	histDigests, appliedDigests, bodies, snaps := h.GCStats()
	if histDigests > 2*interval || appliedDigests > 2*interval || bodies > 2*interval {
		t.Fatalf("GC-on storage grew: digests %d/%d, bodies %d", histDigests, appliedDigests, bodies)
	}
	if snaps < 1 {
		t.Fatal("no snapshot retained at the stable checkpoint")
	}
	refHist, _, refBodies, _ := ref.GCStats()
	if refHist != 100 || refBodies != 100 {
		t.Fatalf("GC-off storage should be linear (digests %d, bodies %d)", refHist, refBodies)
	}
	// The retained snapshot must still cover the stable point.
	if _, ok := h.snaps.LatestAtOrBelow(st.Checkpoint.StableSeq()); !ok {
		t.Fatal("no snapshot at or below the stable checkpoint")
	}
	// Bodies at and above the stable checkpoint stay fetchable (abort-time
	// state transfer needs them).
	for _, d := range st.Digests {
		if _, ok := h.RequestByDigest(d); !ok {
			t.Fatal("retained suffix body was released")
		}
	}
}

// TestExecuteStallsAtGap: when the applied position sits at a gap (a body
// missing below an adopted base checkpoint, awaiting state transfer), newly
// ordered requests must NOT execute past it — applying them at the gap
// position would diverge the applied mirror from the agreed sequence, and
// the pending transfer (which restores only above the applied position)
// could then never repair it.
func TestExecuteStallsAtGap(t *testing.T) {
	h, st := gcHost(t, -1, false) // checkpointing off: pure execution test
	// Simulate an adopted init history starting at a base checkpoint this
	// replica never executed up to: position 0..3 unknown, explicit history
	// from 4 on.
	gapReq := kvReq(100)
	h.Locked(func() {
		st.BaseSeq = 4
		st.resetHistory(0, authn.Digest{}, nil)
	})
	before, _ := h.AppliedState()
	var reply []byte
	h.Locked(func() {
		if _, ok := h.LogBatch(st, msg.BatchOf(gapReq)); !ok {
			t.Fatal("log rejected")
		}
		reply = h.Execute(st, gapReq)
	})
	after, afterDig := h.AppliedState()
	if reply != nil {
		t.Fatalf("executed across the gap: reply %q", reply)
	}
	if after != before {
		t.Fatalf("applied position advanced %d -> %d across the gap", before, after)
	}
	if afterDig != (authn.Digest{}) {
		t.Fatal("applied digest chain diverged across the gap")
	}
}

// TestRollbackRestoresRetainedBoundary: a one-replica host executes ts
// 1..20 at CHK 8, so garbage collection trims below 16, then adopts the next
// instance's init history, which keeps 1..18 and replaces 19 and 20. The
// applied state must go back to the boundary retained at 16 and replay to
// the adopted history's end with no state transfer: applied = 20, with the
// adopted digest chain and none of the rolled-back puts.
func TestRollbackRestoresRetainedBoundary(t *testing.T) {
	const interval = 8
	h, st := gcHost(t, interval, false)
	drive(t, h, st, 1, 20)
	if _, trimmed := h.CheckpointStatus(); trimmed != 16 {
		t.Fatalf("trimmed = %d, want 16 (test setup)", trimmed)
	}
	tail := []msg.Request{kvReq(101), kvReq(102)}
	want := make(history.DigestHistory, 0, 20)
	for ts := uint64(1); ts <= 18; ts++ {
		want = append(want, kvReq(ts).Digest())
	}
	want = append(want, tail[0].Digest(), tail[1].Digest())
	abort := core.AbortMessage{
		Instance: st.ID,
		Replica:  h.ID(),
		Next:     st.ID.Next(),
		Report: history.ReplicaReport{
			CheckpointSeq:    16,
			CheckpointDigest: st.Checkpoint.StableDigest(),
			Suffix:           want[16:].Clone(),
		},
	}
	signed := core.SignedAbort{Abort: abort, Sig: h.Keys().Sign(h.ID(), abort.SignedBytes())}
	init, err := core.BuildInitHistory(h.Cluster(), st.ID, []core.SignedAbort{signed}, tail)
	if err != nil {
		t.Fatal(err)
	}
	h.Locked(func() { h.handleInit(&core.InitMessage{Instance: init.For, Init: init}) })

	if got := h.ActiveInstance(); got != init.For {
		t.Fatalf("active instance %d, want %d", got, init.For)
	}
	if h.Syncing() {
		t.Error("the rollback started a state transfer")
	}
	seq, acc := h.AppliedState()
	if seq != 20 || acc != want.Digest() {
		t.Fatalf("applied %d entries with chain %v, want 20 with the adopted chain %v", seq, acc, want.Digest())
	}
	kv := h.Application().(*app.KVStore)
	for key, val := range map[string]string{"k18": "v18", "k19": "", "k20": "", "k102": "v102"} {
		if got := kv.Get(key); got != val {
			t.Errorf("%s = %q, want %q", key, got, val)
		}
	}
}

// TestRollbackWithoutBoundaryStopsExecuting: a replica whose store holds no
// boundary between its trim point and the divergence cannot rebuild a state
// it trusts, so it starts a state transfer and executes nothing until the
// transfer lands.
func TestRollbackWithoutBoundaryStopsExecuting(t *testing.T) {
	const interval = 8
	h, st := gcHost(t, interval, false)
	drive(t, h, st, 1, 20) // trim point and last boundary at 16
	adopted := &InstanceState{ID: 2, Initialized: true, windows: map[ids.ProcessID]tsState{}}
	var reply []byte
	h.Locked(func() {
		h.snaps.PruneBelow(17) // evicts the boundary at 16
		for ts := uint64(1); ts <= 18; ts++ {
			adopted.Digests = append(adopted.Digests, kvReq(ts).Digest())
		}
		r := kvReq(101)
		h.keepBody(r.Digest(), r, 20)
		adopted.Digests = append(adopted.Digests, r.Digest())
		h.reconcileApplication(adopted)
		reply = h.Execute(adopted, r)
	})
	if !h.Syncing() {
		t.Fatal("no state transfer started")
	}
	if reply != nil {
		t.Fatalf("executed on the diverged state: reply %q", reply)
	}
	if seq, _ := h.AppliedState(); seq != 20 {
		t.Fatalf("applied %d, want the diverged 20 left as it was", seq)
	}
}

// TestGCReleasesSupersededInstances: after an instance switch, the stopped
// instance's history storage and the request bodies only it names must be
// released at the next stable checkpoint — with its signed abort frozen
// first, so late panickers still receive the full report.
func TestGCReleasesSupersededInstances(t *testing.T) {
	const interval = 8
	h, st1 := gcHost(t, interval, false)
	drive(t, h, st1, 1, 20)

	frozen := h.signedAbort(st1) // reference report before the switch
	var st2 *InstanceState
	h.Locked(func() {
		// Switch: stop instance 1 and install instance 2 continuing from the
		// same point (white-box — a real switch would carry an init history).
		h.StopInstance(st1)
		st2 = &InstanceState{
			ID:          2,
			BaseSeq:     st1.AbsLen(),
			BaseDigest:  st1.HistoryDigest(),
			windows:     make(map[ids.ProcessID]tsState),
			Checkpoint:  history.NewCheckpointState(1, interval),
			Initialized: true,
		}
		st2.sealHead()
		h.instances[2] = st2
		h.protocols[2] = nopReplica{}
		h.active = 2
	})
	drive(t, h, st2, 21, 60)

	if got := len(st1.Digests); got != 0 {
		t.Fatalf("superseded instance still materializes %d digests", got)
	}
	if st1.cachedAbort == nil {
		t.Fatal("superseded instance's abort was not frozen before trimming")
	}
	if got := h.signedAbort(st1); len(got.Abort.Report.Suffix) != len(frozen.Abort.Report.Suffix) {
		t.Fatalf("frozen abort report lost its suffix (%d vs %d)",
			len(got.Abort.Report.Suffix), len(frozen.Abort.Report.Suffix))
	}
	// Bodies named only by the pre-switch history are released; retained
	// storage stays bounded by the interval, not the total run.
	_, _, bodies, _ := h.GCStats()
	if bodies >= 60 {
		t.Fatalf("pre-switch bodies pinned: %d stored", bodies)
	}
}

// TestGCKeepsBodiesOfFrozenAbort: the active instance's abort froze while an
// older checkpoint was stable, and a later one stabilized afterwards. The
// next instance's init history names the frozen report's suffix, so those
// bodies must survive the later checkpoint's GC.
func TestGCKeepsBodiesOfFrozenAbort(t *testing.T) {
	const interval = 8
	h, st := gcHost(t, interval, false)
	drive(t, h, st, 1, 20)
	var frozen history.DigestHistory
	h.Locked(func() { frozen = h.signedAbort(st).Abort.Report.Suffix.Clone() })
	if len(frozen) == 0 {
		t.Fatal("frozen report has no suffix")
	}
	drive(t, h, st, 21, 40)
	if st.Checkpoint.StableSeq() <= 20 {
		t.Fatalf("no checkpoint stabilized after the freeze (stable %d)", st.Checkpoint.StableSeq())
	}
	for i, d := range frozen {
		if _, ok := h.RequestByDigest(d); !ok {
			t.Fatalf("body %d of the frozen abort report was released", i)
		}
	}
}

// TestGCReleasesBodiesNoHistoryNames: a body is released by its stamp, not
// by the history that names it. One stored at a position no history names
// goes once the trim point passes that position, and one stored again at a
// higher position outlives its older stamp (a stamp is never lowered).
func TestGCReleasesBodiesNoHistoryNames(t *testing.T) {
	const interval = 8
	h, st := gcHost(t, interval, false)
	orphan, again, kept := kvReq(1001), kvReq(1002), kvReq(1003)
	drive(t, h, st, 1, 4)
	h.Locked(func() {
		h.keepBody(orphan.Digest(), orphan, 10)
		h.keepBody(again.Digest(), again, 3)
		h.keepBody(again.Digest(), again, 30)
		h.keepBody(kept.Digest(), kept, 30)
		h.keepBody(kept.Digest(), kept, 3)
	})
	held := func(r msg.Request) bool {
		_, ok := h.RequestByDigest(r.Digest())
		return ok
	}
	drive(t, h, st, 5, 8)
	if s := st.Checkpoint.StableSeq(); s != 8 || !held(orphan) {
		t.Fatalf("stable %d: body stamped 10 released below the trim point (held %v)", s, held(orphan))
	}
	drive(t, h, st, 9, 20)
	if held(orphan) {
		t.Fatal("body stamped 10 that no history names outlived trim point 16")
	}
	if !held(again) || !held(kept) {
		t.Fatalf("bodies stamped 30 released at trim point 16 (restamped %v, lower store %v)", held(again), held(kept))
	}
	drive(t, h, st, 21, 40)
	if held(again) || held(kept) {
		t.Fatalf("bodies stamped 30 outlived trim point 40 (restamped %v, lower store %v)", held(again), held(kept))
	}
	if _, _, bodies, _ := h.GCStats(); bodies > 2*interval {
		t.Fatalf("%d bodies stored, want at most %d", bodies, 2*interval)
	}
}

// TestFetchResponseStoresOnlyMissingBodies: a FETCH response delivers the
// bodies an instance's pending initialization is missing, and nothing else.
// Bodies nobody asked for — in the same response, for an initialized
// instance, or for one the replica never activated — are dropped instead of
// pinned for the life of the replica.
func TestFetchResponseStoresOnlyMissingBodies(t *testing.T) {
	const interval = 8
	h, _ := gcHost(t, interval, false)
	// Instance 2's init history names two requests this replica never saw.
	want := []msg.Request{kvReq(1), kvReq(2)}
	abort := core.AbortMessage{
		Instance: core.FirstInstance,
		Replica:  h.id,
		Next:     core.FirstInstance.Next(),
		Report:   history.ReplicaReport{Suffix: history.DigestHistory{want[0].Digest(), want[1].Digest()}},
	}
	signed := core.SignedAbort{Abort: abort, Sig: h.keys.Sign(h.id, abort.SignedBytes())}
	init, err := core.BuildInitHistory(h.cluster, core.FirstInstance, []core.SignedAbort{signed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st2 *InstanceState
	h.Locked(func() { st2 = h.activate(abort.Next, &core.InitMessage{Instance: abort.Next, Init: init}) })
	if st2 == nil || st2.Initialized {
		t.Fatal("instance 2 should be waiting for its missing bodies (test setup)")
	}
	var unsolicited []msg.Request
	for i := 0; i < 50; i++ {
		unsolicited = append(unsolicited, kvReq(uint64(5000+i)))
	}
	respond := func(inst core.InstanceID, reqs ...msg.Request) {
		h.dispatch(transport.Envelope{From: ids.Replica(0), Payload: &core.FetchResponse{Instance: inst, Requests: reqs}})
	}
	respond(st2.ID, append(append([]msg.Request(nil), want...), unsolicited[:10]...)...)
	if !st2.Initialized {
		t.Fatal("the fetched bodies did not complete instance 2's initialization")
	}
	respond(st2.ID, unsolicited[10:30]...)
	respond(core.InstanceID(9), unsolicited[30:]...)
	for i, r := range unsolicited {
		if _, ok := h.RequestByDigest(r.Digest()); ok {
			t.Fatalf("unsolicited body %d stored", i)
		}
	}
	drive(t, h, st2, 3, 402)
	if seq, _ := h.AppliedState(); seq != 402 {
		t.Fatalf("applied %d requests, want 402", seq)
	}
	if _, _, bodies, _ := h.GCStats(); bodies > 2*interval {
		t.Fatalf("%d bodies held after 50 checkpoints, want at most %d", bodies, 2*interval)
	}
}

// TestReplyRingServesOvertakenRetransmissions exercises the reply cache of
// timestamp-window width: replies to requests that were overtaken by later
// pipelined requests of the same client — including replies at and below the
// stable checkpoint — are still served from cache instead of falling through
// to the panicking machinery.
func TestReplyRingServesOvertakenRetransmissions(t *testing.T) {
	const interval = 8
	h, st := gcHost(t, interval, false)
	drive(t, h, st, 1, 20)

	stable := st.Checkpoint.StableSeq()
	if stable == 0 {
		t.Fatal("no stable checkpoint")
	}
	h.Locked(func() {
		// Replies at and below the stable checkpoint: the ring is wider than
		// this run, so every reply is still cached even though the history
		// below the checkpoint was garbage-collected.
		for _, ts := range []uint64{stable - 1, stable, stable + 1, 20} {
			reply, ok := h.CachedReply(ids.Client(0), ts)
			if !ok {
				t.Fatalf("reply at ts %d not cached", ts)
			}
			if string(reply) != "OK" {
				t.Fatalf("cached reply at ts %d = %q", ts, reply)
			}
		}
		if _, ok := h.CachedReply(ids.Client(0), 999); ok {
			t.Fatal("cache invented a reply for an unseen timestamp")
		}
	})
}

// TestReplyRingOverwritesSameTimestamp: re-executing a request (speculative
// rollback + re-apply under an adopted prefix) must replace the cached
// reply, never leave two entries where the stale one can win the scan.
func TestReplyRingOverwritesSameTimestamp(t *testing.T) {
	ring := newReplyRing(4)
	ring.add(7, []byte("stale"))
	ring.add(8, []byte("other"))
	ring.add(7, []byte("fresh"))
	if got, ok := ring.get(7); !ok || string(got) != "fresh" {
		t.Fatalf("get(7) = %q, %v; want the re-executed reply", got, ok)
	}
	// The overwrite must not have consumed a second slot.
	ring.add(9, nil)
	ring.add(10, nil)
	if _, ok := ring.get(7); !ok {
		t.Fatal("overwrite consumed an extra slot and evicted ts 7 early")
	}
}

// TestReplyRingEviction checks the ring's width bound: only the last `width`
// replies of a client are retained, oldest evicted first.
func TestReplyRingEviction(t *testing.T) {
	ring := newReplyRing(4)
	for ts := uint64(1); ts <= 6; ts++ {
		ring.add(ts, []byte{byte(ts)})
	}
	for ts := uint64(1); ts <= 2; ts++ {
		if _, ok := ring.get(ts); ok {
			t.Fatalf("ts %d should have been evicted", ts)
		}
	}
	for ts := uint64(3); ts <= 6; ts++ {
		reply, ok := ring.get(ts)
		if !ok || reply[0] != byte(ts) {
			t.Fatalf("ts %d not retained correctly", ts)
		}
	}
}

// TestSupersededInitNeverCompletes: a one-replica host applies ts 1..3,
// adopts instance 2's init [1, x] without x's body, then instance 3's init
// [1..4] with every body known. x's body arriving late for the superseded
// instance 2 must not complete that initialization: the applied state stays
// on instance 3's history instead of rolling back to [1, x].
func TestSupersededInitNeverCompletes(t *testing.T) {
	h, st := gcHost(t, 8, false)
	drive(t, h, st, 1, 3)
	initFor := func(from core.InstanceID, suffix, bodies []msg.Request) *core.InitMessage {
		var digs history.DigestHistory
		for _, r := range suffix {
			digs = append(digs, r.Digest())
		}
		abort := core.AbortMessage{Instance: from, Replica: h.id, Next: from.Next(), Report: history.ReplicaReport{Suffix: digs}}
		signed := core.SignedAbort{Abort: abort, Sig: h.keys.Sign(h.id, abort.SignedBytes())}
		init, err := core.BuildInitHistory(h.cluster, from, []core.SignedAbort{signed}, bodies)
		if err != nil {
			t.Fatal(err)
		}
		return &core.InitMessage{Instance: init.For, Init: init}
	}
	x := kvReq(100)
	var st2 *InstanceState
	h.Locked(func() {
		h.handleInit(initFor(st.ID, []msg.Request{kvReq(1), x}, nil))
		st2 = h.instances[st.ID.Next()]
	})
	if st2 == nil || st2.Initialized {
		t.Fatal("instance 2 should be waiting for x's body (test setup)")
	}
	adopted := []msg.Request{kvReq(1), kvReq(2), kvReq(3), kvReq(4)}
	h.Locked(func() { h.handleInit(initFor(st2.ID, adopted, adopted[3:])) })
	want := make(history.DigestHistory, 0, len(adopted))
	for _, r := range adopted {
		want = append(want, r.Digest())
	}
	if seq, acc := h.AppliedState(); seq != 4 || acc != want.Digest() {
		t.Fatalf("applied %d entries after instance 3's init, want its 4 (test setup)", seq)
	}

	h.dispatch(transport.Envelope{From: ids.Replica(0), Payload: &core.FetchResponse{Instance: st2.ID, Requests: []msg.Request{x}}})
	if got := h.ActiveInstance(); got != st2.ID.Next() {
		t.Fatalf("active instance %d, want %d", got, st2.ID.Next())
	}
	if seq, acc := h.AppliedState(); seq != 4 || acc != want.Digest() {
		t.Fatalf("applied %d entries after a late body for superseded instance 2, want instance 3's 4", seq)
	}
	if got := h.Application().(*app.KVStore).Get("k100"); got != "" {
		t.Fatalf("superseded history executed: k100 = %q", got)
	}
}
