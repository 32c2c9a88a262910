package chain

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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

func newTestCluster(t *testing.T, f int, policy host.BatchPolicy) *testCluster {
	t.Helper()
	tc := &testCluster{
		cluster: ids.NewCluster(f),
		keys:    authn.NewKeyStore("chain-test"),
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
			NewProtocol:         NewReplica(ReplicaConfig{}),
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

// clientMessage builds the instance-1 CHAIN message a client sends to the
// head for req, authenticated toward the first f+1 replicas.
func clientMessage(env core.ClientEnv, req msg.Request) *Message {
	authBytes := core.ClientAuthBytes(1, req.Digest())
	ca := env.Keys.AppendChainMACs(authn.ChainAuthenticator{}, env.ID, env.Cluster.ChainSuccessorSet(env.ID), authBytes[:])
	return &Message{Instance: 1, Req: req, CA: ca}
}

// applied returns every replica's applied-request count.
func (tc *testCluster) applied() []uint64 {
	out := make([]uint64, len(tc.hosts))
	for i, h := range tc.hosts {
		out[i] = applied(h)
	}
	return out
}

// commitOne commits one request of client 0 through the client protocol and
// waits until the last f+1 replicas executed it.
func (tc *testCluster) commitOne(t *testing.T, env core.ClientEnv) msg.Request {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req := msg.Request{Client: env.ID, Timestamp: 1, Command: []byte("once")}
	if out, err := NewClient(env, 1).Invoke(ctx, req, nil); err != nil || !out.Committed {
		t.Fatalf("invoke: committed=%v err=%v", out.Committed, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, h := range tc.hosts[2*tc.cluster.F:] {
		for applied(h) < 1 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return req
}

// TestChainCommitsInCommonCase drives the full pipeline — head batch
// assembly, batch-level chain-authenticator generation and verification at
// every hop, tail fan-out — with a single sequential client (degenerate
// one-request batches under the delay trigger).
func TestChainCommitsInCommonCase(t *testing.T) {
	tc := newTestCluster(t, 1, host.BatchPolicy{})
	env := tc.clientEnv(0)
	client := NewClient(env, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const total = 15
	for ts := uint64(1); ts <= total; ts++ {
		req := msg.Request{Client: env.ID, Timestamp: ts, Command: []byte(fmt.Sprintf("c-%d", ts))}
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
	// Every replica logs all requests; the last f+1 execute them.
	deadline := time.Now().Add(2 * time.Second)
	tail := tc.hosts[tc.cluster.N-1]
	for applied(tail) < total && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := applied(tail); got != total {
		t.Errorf("tail applied %d requests, want %d", got, total)
	}
	for _, h := range tc.hosts {
		st := h.InstanceStateFor(1)
		for st.AbsLen() < total && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := st.AbsLen(); got != total {
			t.Errorf("replica %v logged %d requests, want %d", h.ID(), got, total)
		}
	}
}

// TestChainBatchedConcurrentClients forces multi-request batches through a
// wide assembler window: one BatchMessage per batch traverses the chain with
// batch-level MACs, and the tail fans per-client replies back out. The
// specification checker validates commit ordering across the whole run.
func TestChainBatchedConcurrentClients(t *testing.T) {
	tc := newTestCluster(t, 1, host.BatchPolicy{MaxBatch: 8, MaxDelay: 2 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	const clients = 6
	const perClient = 12
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

// TestChainBatchDuplicateTimestampWithinOneWindow retransmits a request into
// the same assembler window at the head: the batch must order it once and
// the client must still commit.
func TestChainBatchDuplicateTimestampWithinOneWindow(t *testing.T) {
	tc := newTestCluster(t, 1, host.BatchPolicy{MaxBatch: 64, MaxDelay: 20 * time.Millisecond})
	env := tc.clientEnv(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	req := msg.Request{Client: env.ID, Timestamp: 1, Command: []byte("dup")}
	m := clientMessage(env, req)
	env.Endpoint.Send(env.Cluster.Head(), m)
	env.Endpoint.Send(env.Cluster.Head(), m)

	// Await the tail reply through the client-side verification path.
	client := NewClient(env, 1)
	out, committed, err := client.awaitTailReply(ctx, req)
	if err != nil {
		t.Fatalf("await tail reply: %v", err)
	}
	if !committed || !out.Committed {
		t.Fatal("request did not commit")
	}
	deadline := time.Now().Add(2 * time.Second)
	tail := tc.hosts[tc.cluster.N-1]
	for applied(tail) < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := applied(tail); got != 1 {
		t.Errorf("tail applied %d requests, want exactly 1", got)
	}
}

// TestChainDuplicateBatchServesCachedReplies replays a mid-chain BatchMessage
// (modelling a TCP retransmission) after the request committed, and expects
// the chain to re-forward it with cached replies so the tail resends the
// reply to the client — instead of dropping the duplicate and forcing the
// client through the panicking machinery. Nothing may be executed twice.
func TestChainDuplicateBatchServesCachedReplies(t *testing.T) {
	tc := newTestCluster(t, 1, host.BatchPolicy{MaxBatch: 1})
	env := tc.clientEnv(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Capture the head's BatchMessage to its successor.
	var mu sync.Mutex
	var captured *BatchMessage
	head := tc.cluster.Head()
	succ, _ := tc.cluster.ChainSuccessor(head)
	tc.net.AddFilter(func(env transport.Envelope) bool {
		if bm, ok := env.Payload.(*BatchMessage); ok && env.From == head && env.To == succ {
			mu.Lock()
			if captured == nil {
				captured = bm
			}
			mu.Unlock()
		}
		return true
	})

	client := NewClient(env, 1)
	req := msg.Request{Client: env.ID, Timestamp: 1, Command: []byte("once")}
	out, err := client.Invoke(ctx, req, nil)
	if err != nil || !out.Committed {
		t.Fatalf("invoke: committed=%v err=%v", out.Committed, err)
	}
	mu.Lock()
	dup := captured
	mu.Unlock()
	if dup == nil {
		t.Fatal("no BatchMessage captured between head and successor")
	}

	// Replay the captured batch into the successor, as a retransmitting head
	// would, and expect a fresh tail reply for the already-committed request.
	tc.net.Endpoint(head).Send(succ, dup)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no cached tail reply after duplicate batch delivery")
		}
		select {
		case envl := <-env.Endpoint.Inbox():
			m, ok := envl.Payload.(*Message)
			if !ok || !m.HasSeq || m.Req.ID() != req.ID() {
				continue
			}
			if authn.Hash(m.Reply) != m.ReplyDigest {
				t.Fatal("cached tail reply digest mismatch")
			}
			if !client.verifyTailMACs(m) {
				t.Fatal("cached tail reply MACs do not verify")
			}
			// The duplicate must not have been executed again anywhere.
			for i, h := range tc.hosts {
				if tc.cluster.Pos(ids.Replica(i)) >= 2*tc.cluster.F && applied(h) != 1 {
					t.Fatalf("replica %d applied %d requests, want 1", i, applied(h))
				}
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// TestChainHeadIgnoresClientSequencedMessage: a client cannot assign its own
// position. A client-built Message carrying a sequence number, sent to the
// head at the next free position, must be neither logged nor executed.
func TestChainHeadIgnoresClientSequencedMessage(t *testing.T) {
	tc := newTestCluster(t, 1, host.BatchPolicy{MaxBatch: 1})
	env := tc.clientEnv(0)
	tc.commitOne(t, env)
	before := tc.applied()

	req := msg.Request{Client: env.ID, Timestamp: 2, Command: []byte("self-ordered")}
	m := clientMessage(env, req)
	m.HasSeq = true
	m.Seq = tc.hosts[0].InstanceStateFor(1).AbsLen()
	env.Endpoint.Send(tc.cluster.Head(), m)

	// The assertion is that nothing happens, so there is no event to wait
	// on: give the chain ample time to act on the message.
	time.Sleep(200 * time.Millisecond)
	if after := tc.applied(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("applied requests per replica went %v -> %v after a client-sequenced message", before, after)
	}
}

// TestChainHeadDropsDuplicateRequest: a committed request re-sent to the
// head is dropped there. It sends no replica-to-replica Message and executes
// nowhere a second time.
func TestChainHeadDropsDuplicateRequest(t *testing.T) {
	tc := newTestCluster(t, 1, host.BatchPolicy{MaxBatch: 1})
	var relayed atomic.Int64
	tc.net.AddFilter(func(env transport.Envelope) bool {
		if _, ok := env.Payload.(*Message); ok && env.From.IsReplica() && env.To.IsReplica() {
			relayed.Add(1)
		}
		return true
	})
	env := tc.clientEnv(0)
	req := tc.commitOne(t, env)
	before := tc.applied()

	env.Endpoint.Send(tc.cluster.Head(), clientMessage(env, req))

	time.Sleep(200 * time.Millisecond)
	if n := relayed.Load(); n != 0 {
		t.Errorf("%d replica-to-replica Messages after a duplicate request, want 0", n)
	}
	if after := tc.applied(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("applied requests per replica went %v -> %v after a duplicate request", before, after)
	}
}

// applied returns the number of requests h applied to its application.
func applied(h *host.Host) uint64 {
	n, _ := h.AppliedState()
	return n
}
