package host

import (
	"testing"

	"abstractbft/internal/core"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// A pipelined client's in-flight timestamps can overtake each other on the
// network; the window must accept the late-arriving lower timestamp while
// rejecting every duplicate.
func TestTimestampWindowOutOfOrderAcceptance(t *testing.T) {
	st := &InstanceState{windows: map[ids.ProcessID]tsState{}}
	c := ids.Client(0)

	st.markLogged(c, 5)
	if !st.TimestampFresh(c, 3) {
		t.Fatalf("ts=3 below high-water 5 but never logged: want fresh")
	}
	st.markLogged(c, 3)
	if st.TimestampFresh(c, 3) {
		t.Fatalf("ts=3 logged: want stale")
	}
	if st.TimestampFresh(c, 5) {
		t.Fatalf("ts=5 (high-water) logged: want stale")
	}
	if !st.TimestampFresh(c, 4) {
		t.Fatalf("ts=4 within window, never logged: want fresh")
	}
	if !st.TimestampFresh(c, 6) {
		t.Fatalf("ts=6 above high-water: want fresh")
	}
}

func TestTimestampWindowFarBelowIsStale(t *testing.T) {
	st := &InstanceState{windows: map[ids.ProcessID]tsState{}}
	c := ids.Client(0)
	st.markLogged(c, 1000)
	if st.TimestampFresh(c, 1000-uint64(core.DefaultTimestampWindow)) {
		t.Fatalf("timestamps at or beyond the window edge must be stale")
	}
	if !st.TimestampFresh(c, 1000-uint64(core.DefaultTimestampWindow)+1) {
		t.Fatalf("timestamps just inside the window must be fresh")
	}
}

// The window must survive a large high-water jump (mask shift >= 64) without
// forgetting that the new high-water itself is logged.
func TestTimestampWindowLargeJump(t *testing.T) {
	st := &InstanceState{windows: map[ids.ProcessID]tsState{}}
	c := ids.Client(0)
	st.markLogged(c, 1)
	st.markLogged(c, 1_000_000)
	if st.TimestampFresh(c, 1_000_000) {
		t.Fatalf("new high-water must be stale")
	}
	if !st.TimestampFresh(c, 999_999) {
		t.Fatalf("window below the new high-water must be fresh")
	}
}

// FilterFreshBatch must apply the same window intra-batch: out-of-order
// timestamps of one client are both logged, duplicates are not.
func TestFilterFreshBatchWindowIntraBatch(t *testing.T) {
	st := &InstanceState{windows: map[ids.ProcessID]tsState{}}
	batch := msg.BatchOf(
		req(0, 5), // fresh
		req(0, 3), // fresh: within window, out of order
		req(0, 5), // duplicate within batch
		req(0, 4), // fresh
	)
	fresh, stale := st.FilterFreshBatch(batch)
	if fresh.Len() != 3 || len(stale) != 1 {
		t.Fatalf("fresh=%d stale=%d, want 3/1", fresh.Len(), len(stale))
	}
	if stale[0].Timestamp != 5 {
		t.Fatalf("stale request is ts=%d, want the duplicated ts=5", stale[0].Timestamp)
	}
}
