package deploy

import (
	"context"
	"fmt"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/compose"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/shard"
)

// newRecoveryKV builds a plain (unsharded) ZLight KV cluster with a small
// checkpoint interval so short runs cross several boundaries and GC runs.
func newRecoveryKV(t *testing.T) *Cluster {
	t.Helper()
	cluster, err := New(Config{
		F:                  1,
		NewApp:             func() app.Application { return app.NewKVStore() },
		Composition:        compose.MustNew("azyzzyva", compose.Options{}),
		Delta:              50 * time.Millisecond,
		CheckpointInterval: 8,
		Batch:              host.BatchPolicy{MaxBatch: 1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(cluster.Stop)
	return cluster
}

// waitConverged polls until the restarted host's applied state matches the
// reference host exactly.
func waitConverged(t *testing.T, restarted, ref *host.Host, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		seq, dig := restarted.AppliedState()
		refSeq, refDig := ref.AppliedState()
		if !restarted.Syncing() && seq == refSeq && dig == refDig && seq > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica did not converge: applied %d (ref %d)", seq, refSeq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitAppliedEqual waits until every node's per-shard applied state matches
// node 0's.
func waitAppliedEqual(t *testing.T, nodes []*shard.Node, timeout time.Duration) {
	t.Helper()
	for s := range nodes[0].Hosts {
		for _, n := range nodes[1:] {
			waitConverged(t, n.Host(s), nodes[0].Host(s), timeout)
		}
	}
}

// TestRestartWithCrashedDesignatedPeer: the digest-first handshake asks one
// designated peer for the snapshot payload. When that peer is crashed, the
// digest-only majority still agrees but ships nothing; the retry rotation
// must re-designate a live peer and complete the transfer.
func TestRestartWithCrashedDesignatedPeer(t *testing.T) {
	cluster := newRecoveryKV(t)
	client, err := cluster.NextClient()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var ts uint64
	for i := 0; i < 32; i++ {
		ts++
		if _, err := client.Invoke(ctx, msg.Request{Client: ids.Client(0), Timestamp: ts, Command: app.EncodeKVPut(fmt.Sprintf("k%d", i%8), "v")}); err != nil {
			t.Fatalf("put %d: %v", ts, err)
		}
	}
	// Replica 0 is the restarted replica 3's first designated payload
	// shipper (OtherReplicas order). Crash it before the restart: a
	// partition of its own cuts it off both ways.
	cluster.Net.Partition(ids.Replica(0), 1)
	restarted := cluster.RestartReplica(3)
	waitConverged(t, restarted, cluster.Host(1), 15*time.Second)
}

// TestRestartRestoresTimestampWindows: adopted snapshots must carry the
// per-client timestamp-window high-water marks. The suffix bodies of a state
// transfer only rebuild the marks above the snapshot boundary, so without
// the windows in the snapshot payload a client retransmitting a request from
// below the adopted boundary would be accepted as fresh and re-executed on
// the restarted replica — a history-divergence risk.
func TestRestartRestoresTimestampWindows(t *testing.T) {
	cluster := newRecoveryKV(t)
	client, err := cluster.NextClient()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// 24 requests over CHK=8: several checkpoint boundaries, and every
	// timestamp stays well inside the 64-wide window below the final
	// high-water mark (the regime where only the transferred marks can
	// reject a below-boundary retransmission).
	const total = 24
	for ts := uint64(1); ts <= total; ts++ {
		cmd := app.EncodeKVPut(fmt.Sprintf("key-%d", ts%8), fmt.Sprintf("v%d", ts))
		if _, err := client.Invoke(ctx, msg.Request{Client: ids.Client(0), Timestamp: ts, Command: cmd}); err != nil {
			t.Fatalf("put at ts %d: %v", ts, err)
		}
	}

	restarted := cluster.RestartReplica(2)
	waitConverged(t, restarted, cluster.Host(0), 10*time.Second)

	// The transfer restored from a snapshot: bodies below its boundary were
	// never shipped, so the marks for those timestamps can only have come
	// from the snapshot's window payload.
	seq, _ := restarted.AppliedState()
	_, appliedDigests, _, _ := restarted.GCStats()
	boundary := seq - uint64(appliedDigests)
	if boundary == 0 {
		t.Fatal("restarted replica replayed from zero; the test needs a snapshot adoption")
	}
	st := restarted.InstanceStateFor(restarted.ActiveInstance())
	if st == nil {
		t.Fatal("restarted replica has no active instance")
	}
	for ts := uint64(1); ts <= total; ts++ {
		var fresh bool
		restarted.Locked(func() { fresh = st.TimestampFresh(ids.Client(0), ts) })
		if fresh {
			t.Errorf("timestamp %d (snapshot boundary %d) is fresh on the restarted replica: a retransmission would re-execute", ts, boundary)
		}
	}
}

// TestCrashRestartCatchUp is the crash-restart e2e: a replica is killed
// mid-run and restarted with empty state. The live replicas have
// garbage-collected the request bodies below their stable checkpoint, so
// only the FETCH-STATE/STATE snapshot transfer can restore it; afterwards it
// must serve commits again (ZLight needs matching RESPs from all 3f+1
// replicas, so post-restart commits certify digest convergence end to end).
func TestCrashRestartCatchUp(t *testing.T) {
	cluster := newRecoveryKV(t)
	client, err := cluster.NextClient()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var ts uint64
	put := func(k, v string) {
		ts++
		if _, err := client.Invoke(ctx, msg.Request{Client: ids.Client(0), Timestamp: ts, Command: app.EncodeKVPut(k, v)}); err != nil {
			t.Fatalf("put %s at ts %d: %v", k, ts, err)
		}
	}
	for i := 0; i < 40; i++ {
		put(fmt.Sprintf("key-%d", i%16), fmt.Sprintf("v%d", i))
	}

	// GC must have run on the live replicas: the stable checkpoint covers
	// at least one interval and bodies below it are gone.
	stableSeq, trimmed := cluster.Host(0).CheckpointStatus()
	if stableSeq == 0 {
		t.Fatal("no stable checkpoint before the crash")
	}
	if trimmed == 0 {
		t.Fatal("live replicas did not garbage-collect below the stable checkpoint")
	}

	restarted := cluster.RestartReplica(3)
	waitConverged(t, restarted, cluster.Host(0), 10*time.Second)

	// The replica must have restored from a snapshot, not a from-zero
	// replay: the bodies below the stable checkpoint no longer exist.
	seq, _ := restarted.AppliedState()
	_, appliedDigests, _, _ := restarted.GCStats()
	if snapshotSeq := seq - uint64(appliedDigests); snapshotSeq == 0 {
		t.Fatal("restarted replica replayed from zero instead of adopting a snapshot")
	}
	// Its application state matches a live replica bit for bit.
	if got := restarted.Application().(*app.KVStore).Get("key-3"); got == "" {
		t.Fatal("restored KV store is missing pre-crash state")
	}
	want := cluster.Host(0).Application().(*app.KVStore)
	have := restarted.Application().(*app.KVStore)
	if want.Len() != have.Len() {
		t.Fatalf("restored store has %d keys, live store %d", have.Len(), want.Len())
	}

	// Post-restart commits prove the replica serves consistent RESPs again.
	for i := 0; i < 20; i++ {
		put(fmt.Sprintf("after-%d", i), "x")
	}
	if got := restarted.Application().(*app.KVStore).Get("after-19"); got != "x" {
		t.Fatalf("restarted replica did not execute post-restart traffic: %q", got)
	}
}

// TestShardedNodeRestart is the sharded crash-restart e2e: a whole node (all
// per-shard sub-hosts plus the merged mirror) is killed and restarted. It
// adopts the f+1-agreed merged boundary, state-syncs every shard, and
// converges to the same MergedSeq/MergedDigest and application state as the
// live replicas.
func TestShardedNodeRestart(t *testing.T) {
	cluster, err := NewSharded(Config{
		F:                  1,
		NewApp:             func() app.Application { return app.NewKVStore() },
		Composition:        compose.MustNew("azyzzyva", compose.Options{}),
		Delta:              50 * time.Millisecond,
		Shards:             2,
		KeyExtractor:       shard.KVKeyExtractor,
		ShardEpoch:         1,
		CheckpointInterval: 8,
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(cluster.Stop)
	client, err := cluster.NextClient(nil)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var ts uint64
	put := func(k, v string) {
		ts++
		if _, err := client.Invoke(ctx, msg.Request{Client: ids.Client(0), Timestamp: ts, Command: app.EncodeKVPut(k, v)}); err != nil {
			t.Fatalf("put %s at ts %d: %v", k, ts, err)
		}
	}
	for i := 0; i < 48; i++ {
		put(fmt.Sprintf("key-%d", i%24), fmt.Sprintf("v%d", i))
	}

	// Let the merged mirrors settle at one common boundary across nodes
	// (the merge is asynchronous).
	waitMergedEqual := func(nodes []*shard.Node, timeout time.Duration) (uint64, bool) {
		deadline := time.Now().Add(timeout)
		for {
			seq0, dig0 := nodes[0].Exec.MergedSnapshot()
			equal := seq0 > 0
			for _, n := range nodes[1:] {
				seq, dig := n.Exec.MergedSnapshot()
				if seq != seq0 || dig != dig0 {
					equal = false
				}
			}
			if equal {
				return seq0, true
			}
			if time.Now().After(deadline) {
				return seq0, false
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	preSeq, ok := waitMergedEqual(cluster.Nodes, 5*time.Second)
	if !ok {
		t.Fatalf("live nodes did not settle on one merged boundary (node0 at %d)", preSeq)
	}

	restartCtx, restartCancel := context.WithTimeout(ctx, 15*time.Second)
	defer restartCancel()
	restarted, err := cluster.RestartNode(restartCtx, 3)
	if err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	// Every sub-host must state-sync and the restored merged mirror must
	// match the live ones.
	deadline := time.Now().Add(10 * time.Second)
	for {
		syncing := false
		for _, h := range restarted.Hosts {
			if h.Syncing() {
				syncing = true
			}
		}
		if !syncing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted node still state-syncing")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := waitMergedEqual(cluster.Nodes, 5*time.Second); !ok {
		t.Fatal("restarted node's merged mirror did not converge")
	}

	// Post-restart traffic commits (per-shard ZLight needs all 3f+1
	// replicas) and the merged mirrors keep agreeing.
	for i := 0; i < 24; i++ {
		put(fmt.Sprintf("key-%d", i%24), fmt.Sprintf("w%d", i))
	}
	if _, ok := waitMergedEqual(cluster.Nodes, 5*time.Second); !ok {
		t.Fatal("merged mirrors diverged after post-restart traffic")
	}
	seq3, dig3 := restarted.Exec.MergedSnapshot()
	seq0, dig0 := cluster.Nodes[0].Exec.MergedSnapshot()
	if seq3 != seq0 || dig3 != dig0 {
		t.Fatalf("merged state diverged: %d vs %d", seq3, seq0)
	}
	waitAppliedEqual(t, cluster.Nodes, 5*time.Second)
}
