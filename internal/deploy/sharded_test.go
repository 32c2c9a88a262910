package deploy

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/compose"
	"abstractbft/internal/core"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/shard"
)

func newShardedKV(t *testing.T, shards int) *Sharded {
	t.Helper()
	cluster, err := NewSharded(Config{
		F:            1,
		NewApp:       func() app.Application { return app.NewKVStore() },
		Composition:  compose.MustNew("azyzzyva", compose.Options{}),
		Delta:        20 * time.Millisecond,
		Shards:       shards,
		KeyExtractor: shard.KVKeyExtractor,
		ShardEpoch:   1,
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(cluster.Stop)
	return cluster
}

// TestShardedKVEndToEnd drives a 2-shard plane over a KV store: per-key
// sequences stay linearizable (each key is ordered by one shard), different
// keys actually use different shards and leaders, and the asynchronous
// execution stage of every replica converges to the same merged sequence.
func TestShardedKVEndToEnd(t *testing.T) {
	cluster := newShardedKV(t, 2)
	client, err := cluster.NextClient(nil)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	shardCounts := make(map[int]int)
	var ts uint64
	invoke := func(cmd []byte) []byte {
		ts++
		req := msg.Request{Client: ids.Client(0), Timestamp: ts, Command: cmd}
		shardCounts[client.ShardFor(req)]++
		reply, err := client.Invoke(ctx, req)
		if err != nil {
			t.Fatalf("invoke ts=%d: %v", ts, err)
		}
		return reply
	}

	// Per-key linearizable sequence: put v1, read v1, put v2, read v2.
	for i, k := range keys {
		invoke(app.EncodeKVPut(k, fmt.Sprintf("v1-%d", i)))
		if got := invoke(app.EncodeKVGet(k)); string(got) != fmt.Sprintf("v1-%d", i) {
			t.Fatalf("key %s: read %q after first put", k, got)
		}
		invoke(app.EncodeKVPut(k, fmt.Sprintf("v2-%d", i)))
		if got := invoke(app.EncodeKVGet(k)); string(got) != fmt.Sprintf("v2-%d", i) {
			t.Fatalf("key %s: read %q after second put", k, got)
		}
	}
	if len(shardCounts) < 2 {
		t.Fatalf("all keys hashed to one shard (%v); pick different key names", shardCounts)
	}
	// No aborts in the failure-free run: every shard still on instance 1.
	for s := 0; s < cluster.Shards(); s++ {
		if client.Switches(s) != 0 {
			t.Fatalf("shard %d switched instances in the failure-free case", s)
		}
	}
	// The two shards have different leaders.
	if cluster.Lead(0) == cluster.Lead(1) {
		t.Fatalf("both shards led by %v", cluster.Lead(0))
	}

	// Every replica's execution stage converges to the same merged prefix:
	// with epoch 1, min(requests per shard) full rounds merge.
	min := shardCounts[0]
	if shardCounts[1] < min {
		min = shardCounts[1]
	}
	want := uint64(2 * min)
	deadline := time.Now().Add(5 * time.Second)
	for {
		allThere := true
		for _, n := range cluster.Nodes {
			if n.Exec.MergedSeq() < want {
				allThere = false
			}
		}
		if allThere || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var digests []authn.Digest
	var seqs []uint64
	for i, n := range cluster.Nodes {
		seq, dig := n.Exec.MergedSnapshot()
		if seq < want {
			t.Fatalf("replica %d merged %d requests, want at least %d", i, seq, want)
		}
		digests = append(digests, dig)
		seqs = append(seqs, seq)
	}
	// Digests are comparable when the merged lengths match. Each pair is read
	// in one snapshot: a last null-op round may still be merging, so a length
	// read apart from its digest can belong to a later round.
	for i := 1; i < len(digests); i++ {
		if seqs[i] == seqs[0] && digests[i] != digests[0] {
			t.Fatalf("replica %d merged digest diverged from replica 0", i)
		}
	}
}

// TestShardedAbortIndependence stops one shard's instance on every replica
// and expects that shard's composition to switch instances while the other
// shard keeps committing on instance 1 — per-shard abort/switch independence.
func TestShardedAbortIndependence(t *testing.T) {
	cluster := newShardedKV(t, 2)
	client, err := cluster.NextClient(nil)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Find one key per shard.
	keyFor := make(map[int]string)
	for i := 0; len(keyFor) < 2; i++ {
		k := fmt.Sprintf("key-%d", i)
		s := client.ShardFor(msg.Request{Command: app.EncodeKVPut(k, "x")})
		if _, ok := keyFor[s]; !ok {
			keyFor[s] = k
		}
	}

	var ts uint64
	invoke := func(cmd []byte) {
		ts++
		if _, err := client.Invoke(ctx, msg.Request{Client: ids.Client(0), Timestamp: ts, Command: cmd}); err != nil {
			t.Fatalf("invoke ts=%d: %v", ts, err)
		}
	}
	invoke(app.EncodeKVPut(keyFor[0], "before"))
	invoke(app.EncodeKVPut(keyFor[1], "before"))

	// Stop shard 1's instance 1 on every replica (the replica-side abort).
	for _, n := range cluster.Nodes {
		h := n.Host(1)
		if st := h.InstanceStateFor(1); st != nil {
			h.Locked(func() { h.StopInstance(st) })
		}
	}

	// Shard 1 must recover by switching instances; shard 0 must not notice.
	invoke(app.EncodeKVPut(keyFor[1], "after-switch"))
	if client.ActiveInstance(1) <= 1 {
		t.Fatalf("shard 1 still on instance %d after its instance was stopped", client.ActiveInstance(1))
	}
	invoke(app.EncodeKVPut(keyFor[0], "after"))
	if got := client.ActiveInstance(0); got != 1 {
		t.Fatalf("shard 0 switched to instance %d although only shard 1 was stopped", got)
	}
	if client.Switches(0) != 0 {
		t.Fatal("shard 0 performed switches although only shard 1 was stopped")
	}

	// The merged mirrors re-sync across the switch: the adopted history
	// replaced shard 1's speculative tail in every executor (HistoryReset +
	// re-feed), so all replicas converge to one merged boundary and digest.
	deadline := time.Now().Add(5 * time.Second)
	for {
		seq0, dig0 := cluster.Nodes[0].Exec.MergedSnapshot()
		equal := seq0 > 0
		for _, n := range cluster.Nodes[1:] {
			seq, dig := n.Exec.MergedSnapshot()
			if seq != seq0 || dig != dig0 {
				equal = false
			}
		}
		if equal {
			break
		}
		if time.Now().After(deadline) {
			for i, n := range cluster.Nodes {
				seq, dig := n.Exec.MergedSnapshot()
				t.Logf("replica %d merged %d digest %x", i, seq, dig[:4])
			}
			t.Fatal("merged mirrors did not converge after the instance switch")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShardedConcurrentClientsRace exercises the asynchronous execution
// stage under concurrency (run with -race): pipelined sharded clients invoke
// keyed requests across shards while the merged state is read concurrently.
func TestShardedConcurrentClientsRace(t *testing.T) {
	cluster := newShardedKV(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const clients, perClient = 3, 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		client, err := cluster.NextClient(&core.PipelineOptions{Depth: 4})
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		defer client.Close()
		id := ids.Client(c)
		wg.Add(1)
		go func(client *shard.Client, c int) {
			defer wg.Done()
			for i := 1; i <= perClient; i++ {
				cmd := app.EncodeKVPut(fmt.Sprintf("c%d-k%d", c, i%4), "v")
				if _, err := client.Invoke(ctx, msg.Request{Client: id, Timestamp: uint64(i), Command: cmd}); err != nil {
					t.Errorf("client %d invoke %d: %v", c, i, err)
					return
				}
			}
		}(client, c)
	}
	// Concurrent reads of the merged state while ordering is in flight.
	stopPoll := make(chan struct{})
	var pollWg sync.WaitGroup
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			for _, n := range cluster.Nodes {
				n.Exec.MergedSeq()
				n.Exec.MergedDigest()
				n.Exec.MergedSnapshot()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stopPoll)
	pollWg.Wait()
}
