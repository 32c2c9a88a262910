package zlight

import (
	"context"
	"fmt"
	"sync"
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

// newBatchTestCluster spins up a ZLight cluster with an explicit batch
// policy.
func newBatchTestCluster(t *testing.T, f int, policy host.BatchPolicy) *testCluster {
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
			Batch:               policy,
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

// TestZLightBatchSizeOneMatchesUnbatchedSemantics runs the common case with
// batching disabled (MaxBatch=1): every request must commit with the same
// per-request semantics as the historical unbatched path, and the
// specification checker must hold.
func TestZLightBatchSizeOneMatchesUnbatchedSemantics(t *testing.T) {
	tc := newBatchTestCluster(t, 1, host.BatchPolicy{MaxBatch: 1})
	env := tc.clientEnv(0)
	client := NewClient(env, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for ts := uint64(1); ts <= 10; ts++ {
		req := msg.Request{Client: env.ID, Timestamp: ts, Command: []byte(fmt.Sprintf("u-%d", ts))}
		out, err := client.Invoke(ctx, req, nil)
		if err != nil || !out.Committed {
			t.Fatalf("invoke %d: err=%v committed=%v", ts, err, out.Committed)
		}
	}
	if errs := tc.checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, h := range tc.hosts {
		for applied(h) < 10 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := applied(h); got != 10 {
			t.Errorf("replica %v applied %d requests, want 10", h.ID(), got)
		}
	}
}

// TestZLightBatchedConcurrentClients drives concurrent clients into a wide
// assembler window so multi-request batches actually form, and checks the
// Abstract specification over the full run.
func TestZLightBatchedConcurrentClients(t *testing.T) {
	tc := newBatchTestCluster(t, 1, host.BatchPolicy{MaxBatch: 8, MaxDelay: 2 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	const clients = 8
	const perClient = 15
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
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
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if errs := tc.checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
}

// TestZLightDuplicateTimestampWithinOneWindow retransmits a request inside
// the assembler's delay window: the batch assembler must order it once, every
// replica must execute it once, and the client must still commit.
func TestZLightDuplicateTimestampWithinOneWindow(t *testing.T) {
	tc := newBatchTestCluster(t, 1, host.BatchPolicy{MaxBatch: 64, MaxDelay: 20 * time.Millisecond})
	env := tc.clientEnv(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	req := msg.Request{Client: env.ID, Timestamp: 1, Command: []byte("dup")}
	m := env.NewRequest(1, req, nil)
	// Two copies of the same REQ land in the same assembler window.
	env.Endpoint.Send(env.Cluster.Head(), m)
	env.Endpoint.Send(env.Cluster.Head(), m)

	out, committed, err := core.AwaitSpeculativeCommit(ctx, env, 1, req, 5*time.Second)
	if err != nil {
		t.Fatalf("await commit: %v", err)
	}
	if !committed || !out.Committed {
		t.Fatalf("request did not commit speculatively")
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, h := range tc.hosts {
		for applied(h) < 1 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := applied(h); got != 1 {
			t.Errorf("replica %v applied %d requests, want exactly 1", h.ID(), got)
		}
	}
}
