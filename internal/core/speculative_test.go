package core

import (
	"context"
	"encoding/hex"
	"testing"
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// TestGoldenMACInputs pins the RESP MAC input and the ABORT signature input
// to the bytes the bytes.Buffer encoders produced.
func TestGoldenMACInputs(t *testing.T) {
	resp := &RespMessage{Instance: 3, Timestamp: 9,
		ReplyDigest: authn.Hash([]byte("reply")), HistoryDigest: authn.Hash([]byte("hist")), HistoryLen: 77}
	macBytes := resp.MACBytes(ids.Replica(2))
	if got, want := hex.EncodeToString(macBytes[:]), "0000000000000003000000020000000000000009000000000000004d"+
		"5782b18687e6cf8a482fc32d2db5b196d8821c458a0c069c6acf3953446e7bb5"+
		"776d226ded817fd39e64528c3ea5d3633d6eeb1a8593a05cf41b44d7b84090a4"; got != want {
		t.Errorf("RespMessage.MACBytes = %s, want %s", got, want)
	}
	a := msg.Request{Client: ids.Client(7), Timestamp: 0x0102030405060708, Command: []byte("put k v")}
	b := msg.Request{Client: ids.Client(0), Timestamp: 1, ReadOnly: true}
	abort := AbortMessage{Instance: 3, Replica: ids.Replica(1), Timestamp: 5, Next: 4, Flags: 1,
		Report: history.ReplicaReport{CheckpointSeq: 128, CheckpointDigest: authn.Hash([]byte("ckpt")),
			Suffix: history.DigestHistory{a.Digest(), b.Digest()}}}
	if got, want := hex.EncodeToString(abort.SignedBytes()), "0000000000000003000000010000000000000004000000000000008000000001"+
		"be4e4dc1f1e4907ebc4040e2a6c2ebcba6bf79cc8211367a3aceedb760503840"+
		"f9376773f11665741029b970b16b6319db18161a5fae9607a6f7b11fc0d049da"+
		"f957ab44107b54ad8a8b8449cbe99d2aa7e63e3bbb55122c660036dc4ddb06ba"; got != want {
		t.Errorf("AbortMessage.SignedBytes = %s, want %s", got, want)
	}
}

// commitHarness feeds hand-built RESP messages to the speculative commit
// rule through a private in-process endpoint.
type commitHarness struct {
	t    *testing.T
	env  ClientEnv
	net  *transport.Local
	inst InstanceID
}

func newCommitHarness(t *testing.T) *commitHarness {
	net := transport.NewLocal(transport.Options{})
	t.Cleanup(net.Close)
	client := ids.Client(0)
	return &commitHarness{t: t, net: net, inst: 1, env: ClientEnv{
		Cluster: ids.NewCluster(1),
		Keys:    authn.NewKeyStore("commit-rule"),
		ID:      client,
	}.WithEndpoint(net.Endpoint(client))}
}

// resp sends one RESP from replica r for timestamp ts: hist names the history
// the replica claims, reply its answer (the full reply travels only when
// designated).
func (h *commitHarness) resp(r int, ts uint64, hist, reply string, designated bool) {
	m := &RespMessage{Instance: h.inst, Timestamp: ts,
		ReplyDigest: authn.Hash([]byte(reply)), HistoryDigest: authn.Hash([]byte(hist)), HistoryLen: ts}
	if designated {
		m.Reply = []byte(reply)
	}
	macBytes := m.MACBytes(ids.Replica(r))
	m.MAC = h.env.Keys.MAC(ids.Replica(r), h.env.ID, macBytes[:])
	h.net.Endpoint(ids.Replica(r)).Send(h.env.ID, m)
}

func (h *commitHarness) await(reqs []msg.Request, timeout time.Duration) ([]Outcome, bool) {
	h.t.Helper()
	outs, all, err := AwaitBatchSpeculativeCommit(context.Background(), h.env, h.inst, reqs, timeout)
	if err != nil {
		h.t.Fatalf("await: %v", err)
	}
	return outs, all
}

// giveUpWithin is how fast the rule must return when it gives up before its
// timer; the timer itself is set far beyond it.
const (
	giveUpWithin = 2 * time.Second
	longTimer    = time.Minute
)

func TestSpeculativeCommitRule(t *testing.T) {
	reqs := func(tss ...uint64) []msg.Request {
		out := make([]msg.Request, len(tss))
		for i, ts := range tss {
			out[i] = msg.Request{Client: ids.Client(0), Timestamp: ts}
		}
		return out
	}

	t.Run("all 3f+1 matching commit every request", func(t *testing.T) {
		h := newCommitHarness(t)
		for _, ts := range []uint64{1, 2} {
			for r := 0; r < 4; r++ {
				h.resp(r, ts, "h", "ok", r == 0)
			}
		}
		outs, all := h.await(reqs(1, 2), longTimer)
		if !all || !outs[0].Committed || !outs[1].Committed || string(outs[0].Reply) != "ok" {
			t.Fatalf("all=%v outs=%+v, want both committed with the designated reply", all, outs)
		}
	})

	t.Run("duplicate timestamps share one outcome", func(t *testing.T) {
		h := newCommitHarness(t)
		for r := 0; r < 4; r++ {
			h.resp(r, 5, "h", "ok", r == 0)
		}
		outs, all := h.await(reqs(5, 5), longTimer)
		if !all || !outs[0].Committed || !outs[1].Committed {
			t.Fatalf("all=%v outs=%+v, want both aliases committed", all, outs)
		}
	})

	t.Run("a repeated answer is one vote", func(t *testing.T) {
		h := newCommitHarness(t)
		for _, r := range []int{0, 1, 2, 2, 1} {
			h.resp(r, 1, "h", "ok", r == 0)
		}
		if outs, all := h.await(reqs(1), 200*time.Millisecond); all || outs[0].Committed {
			t.Fatal("committed with only three distinct replicas")
		}
	})

	t.Run("no full reply no commit", func(t *testing.T) {
		h := newCommitHarness(t)
		for r := 0; r < 4; r++ {
			h.resp(r, 1, "h", "ok", false)
		}
		if _, all := h.await(reqs(1), 200*time.Millisecond); all {
			t.Fatal("committed without ever seeing the reply")
		}
	})

	t.Run("forged and foreign RESPs are ignored", func(t *testing.T) {
		h := newCommitHarness(t)
		// Replica 3's answer arrives only with a bad MAC; replica 9 does not
		// exist.
		bad := &RespMessage{Instance: h.inst, Timestamp: 1,
			ReplyDigest: authn.Hash([]byte("ok")), HistoryDigest: authn.Hash([]byte("h"))}
		h.net.Endpoint(ids.Replica(3)).Send(h.env.ID, bad)
		h.resp(9, 1, "h", "ok", false)
		for r := 0; r < 3; r++ {
			h.resp(r, 1, "h", "ok", r == 0)
		}
		if _, all := h.await(reqs(1), 200*time.Millisecond); all {
			t.Fatal("committed on an unauthenticated fourth vote")
		}
	})

	t.Run("changed answer gives up on the whole batch", func(t *testing.T) {
		h := newCommitHarness(t)
		h.resp(0, 1, "h", "ok", true)
		h.resp(1, 1, "h", "ok", false)
		h.resp(1, 1, "other", "ok", false) // replica 1 changes its history
		start := time.Now()
		outs, all := h.await(reqs(1, 2), longTimer)
		if all || outs[0].Committed || outs[1].Committed {
			t.Fatalf("all=%v outs=%+v, want nothing committed", all, outs)
		}
		if time.Since(start) > giveUpWithin {
			t.Fatal("waited for the timer instead of giving up at the changed answer")
		}
	})

	t.Run("hopeless returns early", func(t *testing.T) {
		h := newCommitHarness(t)
		for r := 0; r < 4; r++ {
			hist := "h"
			if r == 3 {
				hist = "diverged"
			}
			h.resp(r, 1, hist, "ok", r == 0)
		}
		start := time.Now()
		outs, all := h.await(reqs(1), longTimer)
		if all || outs[0].Committed {
			t.Fatal("committed on divergent histories")
		}
		if time.Since(start) > giveUpWithin {
			t.Fatal("waited for the timer though all 3f+1 replicas had answered divergently")
		}
	})

	t.Run("a commit that leaves only hopeless requests returns early", func(t *testing.T) {
		h := newCommitHarness(t)
		for r := 0; r < 4; r++ {
			reply := "ok"
			if r == 2 {
				reply = "odd"
			}
			h.resp(r, 2, "h2", reply, r == 0) // request 2: divergent replies
		}
		for r := 0; r < 4; r++ {
			h.resp(r, 1, "h1", "ok", r == 0) // request 1 commits afterwards
		}
		start := time.Now()
		outs, all := h.await(reqs(1, 2), longTimer)
		if all || !outs[0].Committed || outs[1].Committed {
			t.Fatalf("all=%v outs=%+v, want only request 1 committed", all, outs)
		}
		if time.Since(start) > giveUpWithin {
			t.Fatal("waited for the timer though the only open request was hopeless")
		}
	})

	t.Run("undecided waits for the timer", func(t *testing.T) {
		h := newCommitHarness(t)
		// Three replicas answered, two ways: the fourth could still not save
		// it, but the rule only gives up once all 3f+1 have answered.
		h.resp(0, 1, "h", "ok", true)
		h.resp(1, 1, "h", "ok", false)
		h.resp(2, 1, "diverged", "ok", false)
		start := time.Now()
		if _, all := h.await(reqs(1), 150*time.Millisecond); all {
			t.Fatal("committed on divergent histories")
		}
		if time.Since(start) < 150*time.Millisecond {
			t.Fatal("gave up before all replicas answered and before the timer")
		}
	})
}
