package shard

import (
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

func execReq(ts uint64, key, value string) msg.Request {
	return msg.Request{Client: ids.Client(0), Timestamp: ts, Command: app.EncodeKVPut(key, value)}
}

func waitMerged(t *testing.T, e *Executor, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.MergedSeq() < want {
		if time.Now().After(deadline) {
			t.Fatalf("merged %d, want %d", e.MergedSeq(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// settle stops e, which drains every fed entry and merges every complete
// round first, and returns the merged sequence it ends on.
func settle(e *Executor) (uint64, authn.Digest) {
	e.Stop()
	return e.MergedSnapshot()
}

// feedShard logs reqs at shard s's positions from, from+1, ….
func feedShard(e *Executor, s int, from uint64, reqs ...msg.Request) {
	for i, r := range reqs {
		e.OnLogged(s, from+uint64(i), r)
	}
}

// TestExecutorResyncReplacesSpeculativeTail: an un-merged speculative entry
// buffered for a shard is replaced — not kept under the first-win rule —
// when the shard's history is reset (instance switch adopting an init
// history) and the agreed value is re-fed. The merged mirror then matches a
// reference executor that only ever saw the agreed sequence.
func TestExecutorResyncReplacesSpeculativeTail(t *testing.T) {
	newExec := func() *Executor { return NewExecutor(ExecutorConfig{Shards: 2, Epoch: 1}) }
	e := newExec()
	ref := newExec()

	// Round 0 merges on both.
	for _, x := range []*Executor{e, ref} {
		x.OnLogged(0, 0, execReq(1, "a", "r0"))
		x.OnLogged(1, 0, execReq(2, "b", "r0"))
	}
	waitMerged(t, e, 2)
	waitMerged(t, ref, 2)

	// Shard 0 position 1: e sees a speculative value that will be rolled
	// back; the reference only ever sees the agreed one.
	e.OnLogged(0, 1, execReq(3, "a", "SPECULATIVE"))
	// An out-of-order speculative entry beyond it must be dropped too.
	e.OnLogged(0, 3, execReq(5, "a", "SPEC-OOO"))
	// The switch adopts a history that replaces position 1 onward.
	e.OnReset(0, 1)
	e.OnLogged(0, 1, execReq(7, "a", "AGREED"))
	ref.OnLogged(0, 1, execReq(7, "a", "AGREED"))

	e.OnLogged(1, 1, execReq(8, "b", "r1"))
	ref.OnLogged(1, 1, execReq(8, "b", "r1"))
	seq, dig := settle(e)
	refSeq, refDig := settle(ref)
	if seq != 4 || refSeq != 4 {
		t.Fatalf("merged %d and %d, want 4", seq, refSeq)
	}
	if dig != refDig {
		t.Fatal("merged digest kept the rolled-back speculative value")
	}
}

// TestExecutorResetBelowPopped: a reset below the already-merged prefix
// rewinds the mirror. The speculative entry is merged before the reset
// arrives, the adopted history is re-fed from the reset position, and the
// mirror ends on the digest chain of a reference fed only [v0, agreed].
func TestExecutorResetBelowPopped(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Shards: 1, Epoch: 1})
	ref := NewExecutor(ExecutorConfig{Shards: 1, Epoch: 1})
	v0, spec, agreed := execReq(1, "k", "v0"), execReq(2, "k", "spec"), execReq(3, "k", "agreed")
	e.OnLogged(0, 0, v0)
	e.OnLogged(0, 1, spec)
	waitMerged(t, e, 2)
	e.OnReset(0, 0)
	feedShard(e, 0, 0, v0, agreed)
	feedShard(ref, 0, 0, v0, agreed)
	seq, dig := settle(e)
	refSeq, refDig := settle(ref)
	if seq != 2 || refSeq != 2 {
		t.Fatalf("merged %d and %d, want 2", seq, refSeq)
	}
	if dig != refDig {
		t.Fatal("merged digest kept the rolled-back value after a reset below the merged prefix")
	}
}

// TestExecutorRewindRequeuesOtherShards: a reset of shard 0 inside the
// second merged round un-merges that round. Shard 1's digests of it and
// shard 0's below the reset position go back into the queues and merge again
// with the re-fed entry, in the reference's order.
func TestExecutorRewindRequeuesOtherShards(t *testing.T) {
	newExec := func() *Executor { return NewExecutor(ExecutorConfig{Shards: 2, Epoch: 2}) }
	e, ref := newExec(), newExec()
	a := []msg.Request{execReq(1, "a", "0"), execReq(2, "a", "1"), execReq(3, "a", "2"), execReq(4, "a", "3")}
	b := []msg.Request{execReq(5, "b", "0"), execReq(6, "b", "1"), execReq(7, "b", "2"), execReq(8, "b", "3")}
	x3 := execReq(9, "a", "agreed")
	feedShard(e, 0, 0, a...)
	feedShard(e, 1, 0, b...)
	waitMerged(t, e, 8)
	e.OnReset(0, 3)
	e.OnLogged(0, 3, x3)
	feedShard(ref, 0, 0, a[0], a[1], a[2], x3)
	feedShard(ref, 1, 0, b...)
	seq, dig := settle(e)
	refSeq, refDig := settle(ref)
	if seq != 8 || refSeq != 8 || dig != refDig {
		t.Fatalf("rewound mirror at %d differs from the reference at %d", seq, refSeq)
	}
}

// TestExecutorStableFloorClampsRewind: once both shards report a stable
// checkpoint, the rounds below the round holding the lower one are no
// longer kept, and a reset reaching below it rewinds only to that round:
// the positions under it are agreed, so a different value re-fed there is
// ignored while the ones above it replace the merged tail.
func TestExecutorStableFloorClampsRewind(t *testing.T) {
	newExec := func() *Executor { return NewExecutor(ExecutorConfig{Shards: 2, Epoch: 2}) }
	e, ref := newExec(), newExec()
	a := []msg.Request{execReq(1, "a", "0"), execReq(2, "a", "1"), execReq(3, "a", "2"), execReq(4, "a", "3")}
	b := []msg.Request{execReq(5, "b", "0"), execReq(6, "b", "1"), execReq(7, "b", "2"), execReq(8, "b", "3")}
	y0, x2, x3 := execReq(9, "a", "never"), execReq(10, "a", "x2"), execReq(11, "a", "x3")
	feedShard(e, 0, 0, a...)
	feedShard(e, 1, 0, b...)
	waitMerged(t, e, 8)
	e.OnStable(0, 2)
	e.OnStable(1, 3)
	e.OnReset(0, 0)
	feedShard(e, 0, 0, y0, a[1], x2, x3)
	feedShard(ref, 0, 0, a[0], a[1], x2, x3)
	feedShard(ref, 1, 0, b...)
	seq, dig := settle(e)
	refSeq, refDig := settle(ref)
	if seq != 8 || refSeq != 8 || dig != refDig {
		t.Fatalf("clamped rewind at %d differs from the reference at %d", seq, refSeq)
	}
}

// TestExecutorMergedSnapshotRestore: a fresh executor restored from a peer's
// merged snapshot continues the digest chain exactly, with its per-shard
// sequencers aligned to the restored boundary.
func TestExecutorMergedSnapshotRestore(t *testing.T) {
	newExec := func() *Executor { return NewExecutor(ExecutorConfig{Shards: 2, Epoch: 2}) }
	live := newExec()
	var ts uint64
	feedRound := func(e *Executor, round uint64) {
		for s := 0; s < 2; s++ {
			for i := uint64(0); i < 2; i++ {
				ts++
				e.OnLogged(s, round*2+i, execReq(ts, "k", "v"))
			}
		}
	}
	feedRound(live, 0)
	feedRound(live, 1)
	waitMerged(t, live, 8)

	seq, dig := live.MergedSnapshot()
	if seq != 8 {
		t.Fatalf("snapshot at %d, want 8", seq)
	}
	fresh := newExec()
	if err := fresh.RestoreMerged(seq, dig); err != nil {
		t.Fatalf("RestoreMerged: %v", err)
	}
	if err := fresh.RestoreMerged(seq+1, dig); err == nil {
		t.Fatal("off-boundary restore accepted")
	}
	// The restored boundary is the floor: a reset below it rewinds nothing.
	fresh.OnReset(0, 0)

	// Both continue with the same suffix and stay identical.
	saved := ts
	feedRound(live, 2)
	ts = saved
	feedRound(fresh, 2)
	liveSeq, liveDig := settle(live)
	freshSeq, freshDig := settle(fresh)
	if liveSeq != 12 || freshSeq != 12 || liveDig != freshDig {
		t.Fatalf("restored executor at %d diverged from the live one at %d", freshSeq, liveSeq)
	}
}

// TestExecutorLaggingShards: the demand probe reports a shard only when
// another shard has filled the next round; an all-idle plane reports
// nothing.
func TestExecutorLaggingShards(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Shards: 2, Epoch: 2})
	defer e.Stop()
	if lag := e.LaggingShards(); len(lag) != 0 {
		t.Fatalf("idle plane reported lagging shards %v", lag)
	}
	// A single ordered request is demand: the whole round must fill (the
	// busy shard's remaining epoch position included), or the request never
	// reaches the merged mirror.
	e.OnLogged(0, 0, execReq(1, "a", "v"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		lag := e.LaggingShards()
		if len(lag) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lagging shards = %v, want both (partial epoch is demand)", lag)
		}
		time.Sleep(time.Millisecond)
	}
	// Once the busy shard fills its epoch, only the idle one lags.
	e.OnLogged(0, 1, execReq(2, "a", "v"))
	for {
		lag := e.LaggingShards()
		if len(lag) == 1 && lag[0] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lagging shards = %v, want [1]", lag)
		}
		time.Sleep(time.Millisecond)
	}
}
