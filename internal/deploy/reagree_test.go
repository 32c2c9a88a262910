package deploy

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/compose"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/shard"
)

// TestRestartNodeWithoutQuorumFailsCleanly: when fewer than f+1 live peers
// can vouch for a merged boundary, RestartNode must fail within
// RecoverTimeout — and the never-started replacement node must still stop
// cleanly (host.Stop used to block forever on an event loop that never ran).
func TestRestartNodeWithoutQuorumFailsCleanly(t *testing.T) {
	cluster, err := NewSharded(Config{
		F:                    1,
		NewApp:               func() app.Application { return app.NewKVStore() },
		Composition:          compose.MustNew("azyzzyva", compose.Options{}),
		Shards:               2,
		RecoverTimeout:       400 * time.Millisecond,
		RecoverRetryInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	// Kill every peer, so no f+1 agreement can form for the restart.
	for i := 0; i < 3; i++ {
		cluster.Nodes[i].Stop()
	}
	if _, err := cluster.RestartNode(3); err == nil {
		t.Fatal("RestartNode succeeded with no live peers")
	}
	// The failed (never-started) node and the network must tear down without
	// deadlocking.
	done := make(chan struct{})
	go func() {
		cluster.Nodes[3].Stop()
		cluster.Net.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stopping the failed restart node deadlocked")
	}
}

// TestPinnedSyncReagreementUnderTraffic is the regression test for the
// automatic re-agreement retry: a restarted sharded node pins its per-shard
// state syncs at the merged boundary collected at restart time, but live
// peers' GC retention floors advance with their own merged mirrors, so under
// continuous traffic the pinned snapshot can be pruned before f+1 answers
// land — and without the retry the pinned sync stalls forever.
//
// The test makes the prune deterministic: it collects a merged boundary,
// stops a node, drives traffic until every live peer's retention floor has
// advanced far past that boundary (the pinned snapshot is then provably
// pruned), and only then recovers a fresh node pinned at the stale boundary
// — with traffic still flowing. Only the re-agreement monitor (re-collect a
// newer f+1-agreed boundary over the control plane, re-restore the merged
// mirror, re-pin the syncs) lets the node converge; verified failing with
// the monitor disabled.
func TestPinnedSyncReagreementUnderTraffic(t *testing.T) {
	cluster, err := NewSharded(Config{
		F:           1,
		NewApp:      func() app.Application { return app.NewKVStore() },
		Composition: compose.MustNew("azyzzyva", compose.Options{}),
		// Generous delta: the recovering replica's absence stalls clients
		// instead of panicking them into instance switches.
		Delta:                2 * time.Second,
		Shards:               2,
		KeyExtractor:         shard.KVKeyExtractor,
		ShardEpoch:           1,
		CheckpointInterval:   4,
		RecoverRetryInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(cluster.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Continuous keyed traffic from two clients for the whole test.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		client, err := cluster.NewClient(c, nil)
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		wg.Add(1)
		go func(c int, client *shard.Client) {
			defer wg.Done()
			defer client.Close()
			var ts uint64
			for !stop.Load() {
				ts++
				req := msg.Request{
					Client:    ids.Client(c),
					Timestamp: ts,
					Command:   app.EncodeKVPut(fmt.Sprintf("key-%d-%d", c, ts%32), "v"),
				}
				if _, err := client.Invoke(ctx, req); err != nil {
					return
				}
			}
		}(c, client)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	// Grab an early merged boundary as the soon-to-be-stale pin.
	var staleSeq uint64
	var staleDig [32]byte
	var staleApp []byte
	deadline := time.Now().Add(20 * time.Second)
	for {
		seq, dig, appBytes := cluster.Nodes[3].Exec.MergedSnapshot()
		if seq > 0 {
			staleSeq, staleDig, staleApp = seq, dig, appBytes
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("plane never merged anything")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Let every live peer's retention floor advance far past the stale
	// boundary (full-speed traffic, all nodes up): once each per-shard
	// merged floor exceeds the stale per-shard pin by several checkpoint
	// retention spans (CheckpointInterval=4 × SnapshotRetain=4, with slack),
	// the snapshot at the pin is pruned on every peer and a sync pinned
	// there can never complete.
	stalePerShard := staleSeq / uint64(cluster.cfg.Shards)
	target := stalePerShard + 64
	deadline = time.Now().Add(60 * time.Second)
	for {
		advanced := true
		for _, n := range cluster.Nodes {
			for s := 0; s < cluster.cfg.Shards; s++ {
				if n.Exec.MergedFloor(s) < target {
					advanced = false
				}
			}
		}
		if advanced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retention floors did not advance past the stale pin")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Crash node 3 and recover a fresh one pinned at the stale (pruned)
	// boundary, with traffic still flowing. Recover starts the re-agreement
	// monitor; the stalled pins must re-collect a newer f+1-agreed boundary
	// over the control plane and re-pin until the transfers complete.
	cluster.Nodes[3].Stop()
	cluster.Net.ResetEndpoint(ids.Replica(3))
	n := cluster.buildNode(ids.Replica(3))
	cluster.Nodes[3] = n
	if err := n.Recover(staleSeq, staleDig, staleApp); err != nil {
		t.Fatalf("Recover: %v", err)
	}

	deadline = time.Now().Add(60 * time.Second)
	for n.Syncing() {
		if time.Now().After(deadline) {
			t.Fatal("pinned sync stalled: the re-agreement retry never re-pinned it (pruned boundary)")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Quiesce and check full convergence of the merged mirrors.
	stop.Store(true)
	wg.Wait()
	deadline = time.Now().Add(30 * time.Second)
	for {
		seq0, dig0, _ := cluster.Nodes[0].Exec.MergedSnapshot()
		seq3, dig3, _ := n.Exec.MergedSnapshot()
		if seq0 > staleSeq && seq0 == seq3 && dig0 == dig3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted node did not converge: %d vs %d", seq3, seq0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
