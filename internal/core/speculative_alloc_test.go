package core

import (
	"context"
	"testing"

	"abstractbft/internal/msg"
)

// TestAwaitSpeculativeCommitAllocs pins the one-request commit rule of a
// closed-loop client: with the four RESPs already in the inbox, a commit
// allocates the reply it returns and nothing else — no timer (the
// environment's InboxWait resets its own), no vote, state or outcome slices.
func TestAwaitSpeculativeCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled MAC states")
	}
	const runs = 200
	h := newCommitHarness(t)
	for ts := uint64(1); ts <= runs+1; ts++ { // AllocsPerRun warms up once
		for r := 0; r < 4; r++ {
			h.resp(r, ts, "h", "ok", r == 0)
		}
	}
	ts := uint64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		ts++
		out, ok, err := AwaitSpeculativeCommit(context.Background(), h.env, h.inst,
			msg.Request{Client: h.env.ID, Timestamp: ts}, longTimer)
		if err != nil || !ok || string(out.Reply) != "ok" {
			t.Fatalf("ts %d: committed=%v err=%v reply=%q", ts, ok, err, out.Reply)
		}
	})
	if allocs > 1 {
		t.Fatalf("AwaitSpeculativeCommit allocates %v times per committed request, want 1 (the reply)", allocs)
	}
}
