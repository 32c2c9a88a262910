package compose_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"abstractbft/internal/compose"
	"abstractbft/internal/core"
	"abstractbft/internal/deploy"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// testDelta is deployComposition's Δ.
const testDelta = 25 * time.Millisecond

// TestAliphSwitchServesInitLoggedRequest pins Aliph's Quorum→Chain hand-over.
// Replica 3 withholds its Quorum RESP to the client, so the client's request
// is logged by every replica but not committed: Quorum's 2Δ timer expires,
// the client panics, and the abort history hands the request to Chain. The
// client's re-send then reaches Chain's head as a duplicate of a request the
// init history logged. Every replica must activate Chain, the head must serve
// the duplicate at its logged position, and the request must commit in Chain
// within 5Δ of the client's first Chain message (Chain's own timer), with no
// replica ever activating Backup. The race detector skips the 5Δ bound; the
// other assertions still catch an expired Chain timer, since it aborts into
// Backup.
func TestAliphSwitchServesInitLoggedRequest(t *testing.T) {
	checker := core.NewSpecChecker()
	c := deployComposition(t, "aliph", compose.Options{}, newCounter, checker)
	client0 := ids.Client(0)
	var chainStart atomic.Int64
	c.Net.AddFilter(func(env transport.Envelope) bool {
		if resp, ok := env.Payload.(*core.RespMessage); ok && resp.Instance == core.FirstInstance && env.From == ids.Replica(3) && env.To == client0 {
			return false
		}
		if im, ok := env.Payload.(core.InstanceMessage); ok && env.From == client0 && im.AbstractInstance() == 2 {
			chainStart.CompareAndSwap(0, time.Now().UnixNano())
		}
		return true
	})
	client, err := c.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.Invoke(ctx, msg.Request{Client: client0, Timestamp: 1, Command: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	took := time.Since(time.Unix(0, chainStart.Load()))
	t.Logf("committed %v after the client's first Chain message", took)
	if got := client.ActiveInstance(); got != 2 {
		t.Fatalf("the withheld request committed in instance %d, want 2 (Chain)", got)
	}
	if took > 5*testDelta && !raceEnabled {
		t.Errorf("the request committed %v after the client's first Chain message, want within 5Δ = %v", took, 5*testDelta)
	}
	waitAllActivated(t, c, 2)
	// Give a stray Chain timer the time to expire before looking for Backup.
	time.Sleep(6 * testDelta)
	assertNeverActivated(t, c, 3)
	if errs := checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
}

// TestCutOffReplicaActivatesFromPeerForward: replica 3 hears nothing from any
// client, InitMessages included. Quorum cannot commit without it, so the
// client switches to Chain, and replica 3 must activate instance 2 from a
// peer's forwarded InitMessage, ahead of the first Chain batch on the same
// FIFO link, and execute every request as Chain's tail.
func TestCutOffReplicaActivatesFromPeerForward(t *testing.T) {
	checker := core.NewSpecChecker()
	c := deployComposition(t, "aliph", compose.Options{}, newCounter, checker)
	cut := c.Cluster.Tail()
	c.Net.AddFilter(func(env transport.Envelope) bool { return !env.From.IsClient() || env.To != cut })
	client, err := c.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const requests = 5
	for ts := uint64(1); ts <= requests; ts++ {
		if _, err := client.Invoke(ctx, msg.Request{Client: ids.Client(0), Timestamp: ts, Command: []byte("y")}); err != nil {
			t.Fatalf("invoke %d: %v", ts, err)
		}
	}
	if got := client.ActiveInstance(); got != 2 {
		t.Fatalf("client ended in instance %d, want 2 (Chain)", got)
	}
	waitAllActivated(t, c, 2)
	for i := range c.Hosts {
		if got := applied(c.Host(i)); i >= 2 && got != requests {
			t.Errorf("replica %d applied %d requests, want %d", i, got, requests)
		}
	}
	assertNeverActivated(t, c, 3)
	if errs := checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
}

// waitAllActivated fails the test unless every replica of c activates and
// initializes instance id within a second.
func waitAllActivated(t *testing.T, c *deploy.Cluster, id core.InstanceID) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for i, h := range c.Hosts {
		for {
			st := h.InstanceStateFor(id)
			initialized := false
			if st != nil {
				h.Locked(func() { initialized = st.Initialized })
			}
			if initialized {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d did not initialize instance %d", i, id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// assertNeverActivated fails the test if any replica of c activated instance
// id.
func assertNeverActivated(t *testing.T, c *deploy.Cluster, id core.InstanceID) {
	t.Helper()
	for i, h := range c.Hosts {
		if h.InstanceStateFor(id) != nil {
			t.Errorf("replica %d activated instance %d", i, id)
		}
	}
}
