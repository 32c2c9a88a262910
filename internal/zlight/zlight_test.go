package zlight

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

// testCluster spins up a ZLight-only cluster over an in-process network.
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
		keys:    authn.NewKeyStore("zlight-test"),
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

func TestZLightCommitsInCommonCase(t *testing.T) {
	tc := newTestCluster(t, 1)
	env := tc.clientEnv(0)
	client := NewClient(env, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for ts := uint64(1); ts <= 20; ts++ {
		req := msg.Request{Client: env.ID, Timestamp: ts, Command: []byte(fmt.Sprintf("cmd-%d", ts))}
		out, err := client.Invoke(ctx, req, nil)
		if err != nil {
			t.Fatalf("invoke %d: %v", ts, err)
		}
		if !out.Committed {
			t.Fatalf("request %d aborted in the common case", ts)
		}
		if len(out.Reply) == 0 {
			t.Fatalf("request %d committed with empty reply", ts)
		}
	}

	if errs := tc.checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}

	// Every replica must have executed all 20 requests.
	deadline := time.Now().Add(2 * time.Second)
	for _, h := range tc.hosts {
		for applied(h) < 20 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := applied(h); got != 20 {
			t.Errorf("replica %v applied %d requests, want 20", h.ID(), got)
		}
	}
}

func TestZLightMultipleClientsCommit(t *testing.T) {
	tc := newTestCluster(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	const clients = 4
	const perClient = 10
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			env := tc.clientEnv(i)
			client := NewClient(env, 1)
			for ts := uint64(1); ts <= perClient; ts++ {
				req := msg.Request{Client: env.ID, Timestamp: ts, Command: []byte(fmt.Sprintf("c%d-%d", i, ts))}
				out, err := client.Invoke(ctx, req, nil)
				if err != nil {
					errCh <- fmt.Errorf("client %d invoke %d: %w", i, ts, err)
					return
				}
				if !out.Committed {
					errCh <- fmt.Errorf("client %d request %d aborted", i, ts)
					return
				}
			}
			errCh <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if errs := tc.checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
}

func TestZLightAbortsWhenReplicaCrashes(t *testing.T) {
	tc := newTestCluster(t, 1)
	env := tc.clientEnv(0)
	client := NewClient(env, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Commit a few requests first.
	for ts := uint64(1); ts <= 3; ts++ {
		req := msg.Request{Client: env.ID, Timestamp: ts, Command: []byte("ok")}
		out, err := client.Invoke(ctx, req, nil)
		if err != nil || !out.Committed {
			t.Fatalf("setup invoke %d failed: %v committed=%v", ts, err, out.Committed)
		}
	}

	// Crash one backup replica: speculative commitment now impossible.
	tc.net.Partition(ids.Replica(3), 1)

	req := msg.Request{Client: env.ID, Timestamp: 4, Command: []byte("will-abort")}
	out, err := client.Invoke(ctx, req, nil)
	if err != nil {
		t.Fatalf("invoke under crash: %v", err)
	}
	if out.Committed {
		t.Fatalf("request committed despite a crashed replica and 3f+1 commit rule")
	}
	if out.Abort == nil || out.Abort.Next != 2 {
		t.Fatalf("abort indication missing or wrong next instance: %+v", out.Abort)
	}
	// The abort history must contain the three committed requests.
	if got := len(out.Abort.Init.Extract.Suffix); got < 3 {
		t.Fatalf("abort history has %d entries, want at least 3", got)
	}
	// The init history must verify against the cluster keys.
	if err := core.VerifyInitHistory(tc.keys, tc.cluster, 2, &out.Abort.Init); err != nil {
		t.Fatalf("init history does not verify: %v", err)
	}
	if errs := tc.checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
}

func TestZLightDuplicateTimestampRejected(t *testing.T) {
	tc := newTestCluster(t, 1)
	env := tc.clientEnv(0)
	client := NewClient(env, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	req := msg.Request{Client: env.ID, Timestamp: 1, Command: []byte("a")}
	if out, err := client.Invoke(ctx, req, nil); err != nil || !out.Committed {
		t.Fatalf("first invoke failed: %v", err)
	}
	// Re-invoking the same timestamp returns the cached reply rather than
	// executing twice.
	out, err := client.Invoke(ctx, req, nil)
	if err != nil {
		t.Fatalf("duplicate invoke: %v", err)
	}
	if !out.Committed {
		t.Fatalf("duplicate invoke aborted")
	}
	if applied(tc.hosts[0]) != 1 {
		t.Fatalf("duplicate request executed twice: applied=%d", applied(tc.hosts[0]))
	}
}

// applied returns the number of requests h applied to its application.
func applied(h *host.Host) uint64 {
	n, _ := h.AppliedState()
	return n
}
