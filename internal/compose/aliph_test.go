package compose_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/compose"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// TestAliphSingleClientUsesQuorum: without contention or failures, Quorum
// commits everything and no switching happens.
func TestAliphSingleClientUsesQuorum(t *testing.T) {
	checker := core.NewSpecChecker()
	c := deployComposition(t, "aliph", compose.Options{}, newCounter, checker)
	client, err := c.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for ts := uint64(1); ts <= 25; ts++ {
		req := msg.Request{Client: ids.Client(0), Timestamp: ts, Command: []byte("x")}
		if _, err := client.Invoke(ctx, req); err != nil {
			t.Fatalf("invoke %d: %v", ts, err)
		}
	}
	if client.Switches() != 0 {
		t.Errorf("single-client run switched %d times, expected 0 (Quorum suffices without contention)", client.Switches())
	}
	if errs := checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
}

// TestAliphContentionSwitchesToChain: concurrent clients create contention;
// Quorum aborts and the composition must settle on Chain, still committing
// every request exactly once.
func TestAliphContentionSwitchesToChain(t *testing.T) {
	checker := core.NewSpecChecker()
	c := deployComposition(t, "aliph", compose.Options{}, newCounter, checker)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const clients = 5
	const perClient = 15
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	switchCount := make([]uint64, clients)
	for i := 0; i < clients; i++ {
		client, err := c.NewClient(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, client *core.Composer) {
			defer wg.Done()
			for ts := uint64(1); ts <= perClient; ts++ {
				req := msg.Request{Client: ids.Client(i), Timestamp: ts, Command: []byte(fmt.Sprintf("c%d-%d", i, ts))}
				if _, err := client.Invoke(ctx, req); err != nil {
					errCh <- fmt.Errorf("client %d invoke %d: %w", i, ts, err)
					return
				}
			}
			switchCount[i] = client.Switches()
		}(i, client)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if errs := checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
	// Every replica must eventually execute all requests exactly once.
	total := uint64(clients * perClient)
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < c.Cluster.N; i++ {
		h := c.Host(i)
		if i >= 2 { // with f=1 only the last f+1 Chain replicas execute eagerly
			for applied(h) < total && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	counter := c.Host(c.Cluster.N - 1).Application().(*app.Counter)
	if counter.Value() != total {
		t.Errorf("tail replica executed %d requests, want %d", counter.Value(), total)
	}
}

// TestAliphCrashFallsBackToBackup: with a crashed replica neither Quorum nor
// Chain can commit; Backup (PBFT) must take over and keep the service live.
func TestAliphCrashFallsBackToBackup(t *testing.T) {
	checker := core.NewSpecChecker()
	c := deployComposition(t, "aliph", compose.Options{}, newCounter, checker)
	client, err := c.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	c.Net.Partition(ids.Replica(1), 1)
	for ts := uint64(1); ts <= 12; ts++ {
		req := msg.Request{Client: ids.Client(0), Timestamp: ts, Command: []byte("y")}
		if _, err := client.Invoke(ctx, req); err != nil {
			t.Fatalf("invoke %d with crashed replica: %v", ts, err)
		}
	}
	if client.Switches() == 0 {
		t.Errorf("expected switches under a crashed replica")
	}
	if errs := checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
}

// TestAliphLowLoadReturnsToQuorum: under contention Aliph moves to Chain;
// when contention disappears the low-load optimization must steer the
// composition back to Quorum via a one-request Backup.
func TestAliphLowLoadReturnsToQuorum(t *testing.T) {
	checker := core.NewSpecChecker()
	c := deployComposition(t, "aliph", compose.Options{LowLoadAfter: 300 * time.Millisecond}, newCounter, checker)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Phase 1: two clients in parallel to force a switch to Chain.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		client, err := c.NewClient(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, client *core.Composer) {
			defer wg.Done()
			for ts := uint64(1); ts <= 10; ts++ {
				req := msg.Request{Client: ids.Client(i), Timestamp: ts, Command: []byte("p1")}
				if _, err := client.Invoke(ctx, req); err != nil {
					t.Errorf("phase1 client %d invoke %d: %v", i, ts, err)
					return
				}
			}
		}(i, client)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Phase 2: a single client keeps issuing requests; after LowLoadAfter the
	// Chain replicas stop with the low-load flag and the composition returns
	// to Quorum. The client must keep committing throughout.
	spec := compose.MustParse("aliph")
	solo, err := c.NewClient(5)
	if err != nil {
		t.Fatal(err)
	}
	start := solo.ActiveInstance()
	for ts := uint64(1); ts <= 200; ts++ {
		req := msg.Request{Client: ids.Client(5), Timestamp: ts, Command: []byte("p2")}
		if _, err := solo.Invoke(ctx, req); err != nil {
			t.Fatalf("phase2 invoke %d: %v", ts, err)
		}
		time.Sleep(5 * time.Millisecond)
		if solo.ActiveInstance() > start && spec.ProtocolAt(solo.ActiveInstance()) == "quorum" {
			break
		}
	}
	if spec.ProtocolAt(solo.ActiveInstance()) != "quorum" {
		t.Errorf("composition did not return to Quorum under low load (active protocol %q, instance %d)",
			spec.ProtocolAt(solo.ActiveInstance()), solo.ActiveInstance())
	}
	if errs := checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
}

// applied returns the number of requests h applied to its application.
func applied(h *host.Host) uint64 {
	n, _ := h.AppliedState()
	return n
}
