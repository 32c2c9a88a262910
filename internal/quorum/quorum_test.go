package quorum

import (
	"context"
	"fmt"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

type testCluster struct {
	cluster ids.Cluster
	keys    *authn.KeyStore
	net     *transport.Local
	hosts   []*host.Host
	checker *core.SpecChecker
}

func newTestCluster(t *testing.T, f int) *testCluster {
	t.Helper()
	tc := &testCluster{
		cluster: ids.NewCluster(f),
		keys:    authn.NewKeyStore("quorum-test"),
		net:     transport.NewLocal(transport.Options{}),
		checker: core.NewSpecChecker(),
	}
	for i := 0; i < tc.cluster.N; i++ {
		r := ids.Replica(i)
		h := host.New(host.Config{
			Cluster:             tc.cluster,
			Replica:             r,
			Keys:                tc.keys,
			App:                 app.NewCounter(),
			Endpoint:            tc.net.Endpoint(r),
			NewProtocol:         NewReplica(),
			InstrumentHistories: true,
		})
		h.Start()
		tc.hosts = append(tc.hosts, h)
	}
	t.Cleanup(func() {
		for _, h := range tc.hosts {
			h.Stop()
		}
		tc.net.Close()
	})
	return tc
}

func (tc *testCluster) clientEnv(i int) core.ClientEnv {
	id := ids.Client(i)
	return core.ClientEnv{
		Cluster:  tc.cluster,
		Keys:     tc.keys,
		ID:       id,
		Endpoint: tc.net.Endpoint(id),
		Delta:    20 * time.Millisecond,
		Checker:  tc.checker,
	}
}

func TestQuorumCommitsInCommonCase(t *testing.T) {
	tc := newTestCluster(t, 1)
	env := tc.clientEnv(0)
	client := NewClient(env, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for ts := uint64(1); ts <= 10; ts++ {
		req := msg.Request{Client: env.ID, Timestamp: ts, Command: []byte(fmt.Sprintf("q-%d", ts))}
		out, err := client.Invoke(ctx, req, nil)
		if err != nil {
			t.Fatalf("invoke %d: %v", ts, err)
		}
		if !out.Committed {
			t.Fatalf("request %d aborted without contention", ts)
		}
	}
	if errs := tc.checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
}

func TestQuorumInvokeBatchCommitsWholeBatch(t *testing.T) {
	tc := newTestCluster(t, 1)
	env := tc.clientEnv(0)
	client := NewClient(env, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const batchLen = 5
	reqs := make([]msg.Request, 0, batchLen)
	for ts := uint64(1); ts <= batchLen; ts++ {
		reqs = append(reqs, msg.Request{Client: env.ID, Timestamp: ts, Command: []byte(fmt.Sprintf("b-%d", ts))})
	}
	outs, err := client.InvokeBatch(ctx, reqs, nil)
	if err != nil {
		t.Fatalf("invoke batch: %v", err)
	}
	if len(outs) != batchLen {
		t.Fatalf("got %d outcomes, want %d", len(outs), batchLen)
	}
	for i, out := range outs {
		if !out.Committed {
			t.Fatalf("batched request %d did not commit", i+1)
		}
		if len(out.Reply) == 0 {
			t.Fatalf("batched request %d committed with empty reply", i+1)
		}
	}
	if errs := tc.checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
	// Every replica logged the batch as one history append span.
	deadline := time.Now().Add(2 * time.Second)
	for _, h := range tc.hosts {
		for applied(h) < batchLen && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := applied(h); got != batchLen {
			t.Errorf("replica %v applied %d requests, want %d", h.ID(), got, batchLen)
		}
	}
}

func TestQuorumInvokeBatchDuplicateTimestamps(t *testing.T) {
	tc := newTestCluster(t, 1)
	env := tc.clientEnv(0)
	client := NewClient(env, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	first := msg.Request{Client: env.ID, Timestamp: 1, Command: []byte("once")}
	if outs, err := client.InvokeBatch(ctx, []msg.Request{first}, nil); err != nil || !outs[0].Committed {
		t.Fatalf("setup batch failed: %v", err)
	}
	// Re-invoking the committed timestamp alongside a fresh request must
	// commit the fresh one and answer the duplicate from the reply cache
	// without re-executing it.
	second := msg.Request{Client: env.ID, Timestamp: 2, Command: []byte("fresh")}
	outs, err := client.InvokeBatch(ctx, []msg.Request{first, second}, nil)
	if err != nil {
		t.Fatalf("batch with duplicate: %v", err)
	}
	for i, out := range outs {
		if !out.Committed {
			t.Fatalf("outcome %d did not commit", i)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, h := range tc.hosts {
		for applied(h) < 2 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := applied(h); got != 2 {
			t.Errorf("replica %v applied %d requests, want 2 (duplicate re-executed?)", h.ID(), got)
		}
	}
}

// applied returns the number of requests h applied to its application.
func applied(h *host.Host) uint64 {
	n, _ := h.AppliedState()
	return n
}
