package deploy

import (
	"context"
	"fmt"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/compose"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/shard"
)

// TestIdleShardNullOpsAdvanceMerge drives traffic at exactly one shard of a
// two-shard plane: without Mencius-style null-ops the cross-shard merge
// would stall forever on the idle shard's empty epoch; with them the idle
// shard's leader fills its positions, every replica's merged sequence covers
// the busy shard's traffic, and the merged mirrors still agree — while the
// idle shard's application (null-ops execute nothing) and the clients (no
// replies for null-ops) never notice.
func TestIdleShardNullOpsAdvanceMerge(t *testing.T) {
	cluster, err := NewSharded(Config{
		F:                   1,
		NewApp:              func() app.Application { return app.NewKVStore() },
		Composition:         compose.MustNew("azyzzyva", compose.Options{}),
		Delta:               50 * time.Millisecond,
		Shards:              2,
		KeyExtractor:        shard.KVKeyExtractor,
		ShardEpoch:          2,
		ShardNullOpInterval: time.Millisecond,
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
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Find keys that all hash to one shard (the other stays idle).
	busy := -1
	var keys []string
	for i := 0; len(keys) < 8; i++ {
		k := fmt.Sprintf("key-%d", i)
		s := client.ShardFor(msg.Request{Command: app.EncodeKVPut(k, "x")})
		if busy == -1 {
			busy = s
		}
		if s == busy {
			keys = append(keys, k)
		}
	}
	idle := 1 - busy

	var ts uint64
	for i, k := range keys {
		ts++
		if _, err := client.Invoke(ctx, msg.Request{Client: ids.Client(0), Timestamp: ts, Command: app.EncodeKVPut(k, fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}

	// The merge must advance past the busy shard's traffic on every replica
	// even though the idle shard got none: null-ops fill its epochs.
	want := uint64(len(keys))
	deadline := time.Now().Add(5 * time.Second)
	for {
		allThere := true
		for _, n := range cluster.Nodes {
			if n.Exec.MergedSeq() < want {
				allThere = false
			}
		}
		if allThere {
			break
		}
		if time.Now().After(deadline) {
			for i, n := range cluster.Nodes {
				t.Logf("replica %d merged %d", i, n.Exec.MergedSeq())
			}
			t.Fatalf("merge stalled below %d despite null-ops", want)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Merged mirrors agree across replicas (equal length => equal digest),
	// and the idle shard's application executed nothing.
	var digests []authn.Digest
	var seqs []uint64
	for _, n := range cluster.Nodes {
		seq, dig, _ := n.Exec.MergedSnapshot()
		seqs = append(seqs, seq)
		digests = append(digests, dig)
	}
	for i := 1; i < len(digests); i++ {
		if seqs[i] == seqs[0] && digests[i] != digests[0] {
			t.Fatalf("replica %d merged digest diverged", i)
		}
	}
	for _, n := range cluster.Nodes {
		if got := n.Host(idle).Application().(*app.KVStore).Len(); got != 0 {
			t.Fatalf("idle shard executed %d commands (null-ops must execute nothing)", got)
		}
		if merged := n.Exec.MergedApp().(*app.KVStore); merged.Len() > len(keys) {
			t.Fatalf("merged mirror grew %d keys from null-ops", merged.Len())
		}
	}
}
