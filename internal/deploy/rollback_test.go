package deploy_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/compose"
	"abstractbft/internal/core"
	"abstractbft/internal/deploy"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
	"abstractbft/internal/quorum"
	"abstractbft/internal/transport"
)

// TestQuorumRollbackRestoresCheckpoint: under quorum-backup at CHK 8, after
// 40 committed puts, replica r3 misses client c1's next Quorum REQ, so it
// executes c0's request where the other replicas executed c1's. Neither
// commits, both clients panic, and Backup's init history (the majority's
// order) makes r3 roll its speculative tail back. The rollback must restore
// a retained checkpoint boundary and replay from it instead of fetching
// state from the peers: no state transfer starts, all four replicas end on
// one applied state, and the run meets the Abstract specification.
func TestQuorumRollbackRestoresCheckpoint(t *testing.T) {
	reg := obs.NewRegistry()
	checker := core.NewSpecChecker()
	c, err := deploy.New(deploy.Config{
		F:                   1,
		NewApp:              func() app.Application { return app.NewKVStore() },
		Composition:         compose.MustNew("quorum-backup", compose.Options{}),
		CheckpointInterval:  8,
		InstrumentHistories: true,
		Checker:             checker,
		Metrics:             reg,
	})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(c.Stop)
	clients := make([]*core.Composer, 2)
	for i := range clients {
		if clients[i], err = c.NewClient(i); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	put := func(client int, ts uint64) error {
		req := msg.Request{Client: ids.Client(client), Timestamp: ts,
			Command: app.EncodeKVPut(fmt.Sprintf("k%d", ts%5), fmt.Sprintf("c%d-%d", client, ts))}
		if _, err := clients[client].Invoke(ctx, req); err != nil {
			return fmt.Errorf("client %d ts %d: %w", client, ts, err)
		}
		return nil
	}
	await := func(what string, done func(h int) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			all := true
			for h := range c.Hosts {
				all = all && done(h)
			}
			if all {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	for ts := uint64(1); ts <= 40; ts++ {
		if err := put(0, ts); err != nil {
			t.Fatal(err)
		}
	}
	// The next instance's base is the stable checkpoint at 40, above every
	// position a rollback to the first instance's activation could replay.
	await("the checkpoint at 40 to stabilize", func(h int) bool {
		stable, _ := c.Host(h).CheckpointStatus()
		return stable == 40
	})

	var dropped atomic.Bool
	c.Net.AddFilter(func(env transport.Envelope) bool {
		if _, ok := env.Payload.(*quorum.RequestMessage); ok && env.From == ids.Client(1) && env.To == ids.Replica(3) {
			return !dropped.CompareAndSwap(false, true)
		}
		return true
	})
	errs := make(chan error, 2)
	go func() { errs <- put(1, 1) }()
	// c0's request reaches every replica after c1's reached r0, r1 and r2.
	await("r0-r2 to execute c1's request", func(h int) bool {
		return h == 3 || c.Host(h).AppliedRequests() == 41
	})
	go func() { errs <- put(0, 41) }()
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if !dropped.Load() {
		t.Fatal("c1's request to r3 was never dropped (test setup)")
	}
	for ts := uint64(42); ts <= 49; ts++ {
		if err := put(0, ts); err != nil {
			t.Fatal(err)
		}
	}
	if clients[0].Switches() == 0 {
		t.Fatal("the diverged Quorum instance never aborted (test setup)")
	}

	seq, digest := c.Host(0).AppliedState()
	await("the replicas to converge", func(h int) bool {
		seq, digest = c.Host(0).AppliedState()
		s, d := c.Host(h).AppliedState()
		return s == 50 && s == seq && d == digest
	})
	if n := reg.Counter("statesync_transfers_started_total").Value(); n != 0 {
		t.Errorf("%d state transfers started; the rollback should restore a checkpoint", n)
	}
	if errs := checker.Check(); len(errs) > 0 {
		t.Errorf("specification violations: %v", errs)
	}
}
