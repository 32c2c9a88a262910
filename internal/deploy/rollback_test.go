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
	"abstractbft/internal/shard"
	"abstractbft/internal/transport"
	"abstractbft/internal/zlight"
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
		if _, ok := env.Payload.(*core.RequestMessage); ok && env.From == ids.Client(1) && env.To == ids.Replica(3) {
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

// TestShardedRollbackRewindsMergedMirror: on a two-shard azyzzyva plane at
// epoch 2, shard 0's leader r0 orders client 0's put but its ORDER never
// reaches r1–r3, and client 0's PANIC is dropped so the request stays
// speculative on r0 alone. A put on shard 1 and the null-ops complete merge
// round 0 on r0 with the put inside it. Client 0 then gives up, and client
// 1's put on shard 0 panics: the next instance's init history leaves client
// 0's put out, and Backup orders client 1's put at its position. r0 must
// un-merge the rolled-back round, so every replica ends on one merged digest
// chain and one applied state per shard.
func TestShardedRollbackRewindsMergedMirror(t *testing.T) {
	c, err := deploy.NewSharded(deploy.Config{
		F:            1,
		NewApp:       func() app.Application { return app.NewKVStore() },
		Composition:  compose.MustNew("azyzzyva", compose.Options{}),
		Delta:        25 * time.Millisecond,
		Shards:       2,
		KeyExtractor: shard.KVKeyExtractor,
		ShardEpoch:   2,
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(c.Stop)
	clients := make([]*shard.Client, 3)
	for i := range clients {
		if clients[i], err = c.NewClient(i, nil); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}
	keys := make([][]string, 2)
	for i := 0; len(keys[0]) < 4 || len(keys[1]) < 4; i++ {
		k := fmt.Sprintf("key-%d", i)
		s := clients[0].ShardFor(msg.Request{Command: app.EncodeKVPut(k, "")})
		keys[s] = append(keys[s], k)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stamps := make([]uint64, len(clients))
	put := func(ctx context.Context, client int, key string) error {
		stamps[client]++
		req := msg.Request{Client: ids.Client(client), Timestamp: stamps[client], Command: app.EncodeKVPut(key, fmt.Sprintf("c%d-%d", client, stamps[client]))}
		_, err := clients[client].Invoke(ctx, req)
		return err
	}

	var dropped atomic.Bool
	c.Net.AddFilter(func(env transport.Envelope) bool {
		mk, ok := env.Payload.(*shard.Mark)
		if !ok || mk.Shard != 0 {
			return true
		}
		switch m := mk.Payload.(type) {
		case *zlight.OrderMessage:
			for _, req := range m.Batch.Requests {
				if req.Client == ids.Client(0) {
					dropped.Store(true)
					return false
				}
			}
		case *core.PanicMessage:
			return m.Client != ids.Client(0)
		}
		return true
	})
	stuckCtx, giveUp := context.WithCancel(ctx)
	stuck := make(chan error, 1)
	go func() { stuck <- put(stuckCtx, 0, keys[0][0]) }()
	if err := put(ctx, 2, keys[1][0]); err != nil {
		t.Fatal(err)
	}
	r0 := c.Node(0)
	for deadline := time.Now().Add(10 * time.Second); r0.Exec.MergedSeq() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("r0 merged %d, never the round holding client 0's put (test setup)", r0.Exec.MergedSeq())
		}
	}
	if !dropped.Load() {
		t.Fatal("client 0's ORDER was never dropped (test setup)")
	}
	giveUp()
	if err := <-stuck; err == nil {
		t.Fatal("client 0's put committed although r1–r3 never saw it (test setup)")
	}

	for i := 0; i < 4; i++ {
		if err := put(ctx, 1, keys[0][i]); err != nil {
			t.Fatal(err)
		}
		if err := put(ctx, 2, keys[1][i]); err != nil {
			t.Fatal(err)
		}
	}
	if clients[1].Switches(0) == 0 {
		t.Fatal("shard 0 never switched instances (test setup)")
	}

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		seq0, dig0 := r0.Exec.MergedSnapshot()
		same := seq0 >= 8
		for _, n := range c.Nodes[1:] {
			seq, dig := n.Exec.MergedSnapshot()
			same = same && seq == seq0 && dig == dig0
		}
		for s := 0; s < c.Shards(); s++ {
			seq0, dig0 := r0.Host(s).AppliedState()
			for _, n := range c.Nodes[1:] {
				seq, dig := n.Host(s).AppliedState()
				same = same && seq == seq0 && dig == dig0
			}
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			for i, n := range c.Nodes {
				seq, dig := n.Exec.MergedSnapshot()
				aseq, adig := n.Host(0).AppliedState()
				t.Logf("r%d merged %d %x, shard 0 applied %d %x", i, seq, dig[:4], aseq, adig[:4])
			}
			t.Fatal("the replicas did not converge on one merged digest chain and applied state")
		}
	}
}
