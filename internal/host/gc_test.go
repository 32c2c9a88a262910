package host

import (
	"fmt"
	"testing"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
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
		CheckpointInterval: interval,
		DisableGC:          disableGC,
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
			ID:            2,
			BaseSeq:       st1.AbsLen(),
			BaseDigest:    st1.HistoryDigest(),
			LastTimestamp: make(map[ids.ProcessID]uint64),
			Checkpoint:    history.NewCheckpointState(1, interval),
			Initialized:   true,
		}
		st2.sealHead()
		h.instances[2] = st2
		h.protocols[2] = nopReplica{}
		h.active = 2
		h.takeActivationSnapshot()
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
