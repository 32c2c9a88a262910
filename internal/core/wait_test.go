package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// waitSlack bounds how late a wait may end after its deadline or its
// context's cancellation: generous, so a loaded machine (or the race
// detector) does not fail the test, yet far below the ten-second timeouts a
// missed wake-up would leave the wait blocked on.
const waitSlack = time.Second

// silentWait runs one commit wait of timeout against a cluster that never
// answers and returns how long it took; it fails the test unless the wait
// ended uncommitted without an error.
func (h *commitHarness) silentWait(ts uint64, timeout time.Duration) time.Duration {
	h.t.Helper()
	start := time.Now()
	_, ok, err := AwaitSpeculativeCommit(context.Background(), h.env, h.inst, msg.Request{Client: h.env.ID, Timestamp: ts}, timeout)
	took := time.Since(start)
	if err != nil || ok {
		h.t.Fatalf("silent cluster: committed=%v err=%v", ok, err)
	}
	return took
}

// TestWaitEndsAtDeadline: against a silent cluster the commit wait ends at
// its deadline — not before, and not much after, since the deadline reaches
// the wait as a wake-up in its inbox.
func TestWaitEndsAtDeadline(t *testing.T) {
	h := newCommitHarness(t)
	const timeout = 30 * time.Millisecond
	for ts := uint64(1); ts <= 3; ts++ {
		if took := h.silentWait(ts, timeout); took < timeout || took > timeout+waitSlack {
			t.Fatalf("wait %d took %v, want %v", ts, took, timeout)
		}
	}
}

// TestWaitEndsOnCancel: cancelling the context ends a wait whose deadline is
// ten seconds away, promptly and with the context's error; a second wait on the
// same cancelled context ends at once.
func TestWaitEndsOnCancel(t *testing.T) {
	h := newCommitHarness(t)
	ctx, cancel := context.WithCancel(context.Background())
	const after = 20 * time.Millisecond
	time.AfterFunc(after, cancel)
	start := time.Now()
	_, ok, err := AwaitSpeculativeCommit(ctx, h.env, h.inst, msg.Request{Client: h.env.ID, Timestamp: 1}, 10*time.Second)
	if took := time.Since(start); !errors.Is(err, context.Canceled) || ok || took < after || took > after+waitSlack {
		t.Fatalf("cancelled wait: committed=%v err=%v after %v, want context.Canceled after %v", ok, err, took, after)
	}
	start = time.Now()
	_, _, err = AwaitSpeculativeCommit(ctx, h.env, h.inst, msg.Request{Client: h.env.ID, Timestamp: 2}, 10*time.Second)
	if took := time.Since(start); !errors.Is(err, context.Canceled) || took > waitSlack {
		t.Fatalf("wait on a cancelled context: err=%v after %v", err, took)
	}
}

// TestWaitIgnoresLeftoverWakeUp: a wait's timer that fires after the wait
// ended (Stop lost the race) pokes the environment's wait and leaves a
// wake-up in the inbox. Neither may end the next wait before its own
// deadline, nor keep it from committing.
func TestWaitIgnoresLeftoverWakeUp(t *testing.T) {
	h := newCommitHarness(t)
	h.silentWait(1, time.Millisecond)
	// The late fire of wait 1's timer, twice over.
	h.env.wait.poke()
	h.env.wait.poke()
	const timeout = 40 * time.Millisecond
	if took := h.silentWait(2, timeout); took < timeout {
		t.Fatalf("a leftover wake-up ended the next wait after %v, before its %v deadline", took, timeout)
	}
	h.env.wait.poke()
	for r := 0; r < 4; r++ {
		h.resp(r, 3, "h", "ok", r == 0)
	}
	outs, ok := h.await([]msg.Request{{Client: h.env.ID, Timestamp: 3}}, time.Hour)
	if !ok || string(outs[0].Reply) != "ok" {
		t.Fatalf("wait after a leftover wake-up: committed=%v", ok)
	}
}

// TestWaitIgnoresForeignWakeUp: a payload-free envelope another process
// sends over Local looks like a wake-up but carries no authority: a flood of
// them neither ends a wait early nor stops it from committing.
func TestWaitIgnoresForeignWakeUp(t *testing.T) {
	h := newCommitHarness(t)
	other := h.net.Endpoint(ids.Replica(1))
	flood := func() {
		for i := 0; i < 100; i++ {
			other.Send(h.env.ID, nil)
		}
	}
	flood()
	const timeout = 40 * time.Millisecond
	time.AfterFunc(timeout/4, flood)
	if took := h.silentWait(1, timeout); took < timeout {
		t.Fatalf("foreign wake-ups ended the wait after %v, before its %v deadline", took, timeout)
	}
	flood()
	for r := 0; r < 4; r++ {
		h.resp(r, 2, "h", "ok", r == 0)
	}
	flood()
	outs, ok := h.await([]msg.Request{{Client: h.env.ID, Timestamp: 2}}, time.Hour)
	if !ok || string(outs[0].Reply) != "ok" {
		t.Fatalf("wait among foreign wake-ups: committed=%v", ok)
	}
}
