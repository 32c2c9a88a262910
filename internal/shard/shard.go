// Package shard implements the sharded multi-leader ordering plane: client
// requests are partitioned by application key across S parallel Abstract
// compositions (one per shard, each with its own leader assignment, batch
// assembler, and instance switching), multiplying the batched request plane
// by S leaders instead of one.
//
// Each shard is a complete composed protocol over the same replica group:
// shard s's chain/leader order is rotated so that replica (s mod N) is its
// head (ids.Cluster.WithLead), spreading the S ordering bottlenecks across
// the cluster. Requests are routed to shards by a deterministic hash of an
// application-defined key, so all requests touching one key are ordered and
// executed by the same shard — replies are linearizable per key.
//
// An asynchronous execution stage (Executor) consumes the ordered spans of
// every shard off the ordering critical path and merges them into one
// deterministic global sequence using shard epoch rounds: round r carries
// positions [r*E, (r+1)*E) of shard 0, then of shard 1, …, then of shard
// S-1. The merged sequence of request digests is a pure function of the
// per-shard histories, so all replicas converge to the same global order
// without any cross-shard coordination messages; a shard that rolls back a
// merged tail rewinds the merge to the agreed history.
package shard

import (
	"encoding/binary"
	"hash/fnv"

	"abstractbft/internal/app"
	"abstractbft/internal/msg"
)

// KeyExtractor maps a request to its application key; requests with equal
// keys are routed to the same shard. Extractors must be deterministic.
type KeyExtractor func(req msg.Request) []byte

// FullCommandKey keys every request by its whole command (the default): two
// identical commands collide, everything else spreads uniformly.
func FullCommandKey(req msg.Request) []byte { return req.Command }

// PrefixKeyExtractor keys requests by the first n bytes of the command, the
// convention used by the keyed workload generators (an 8-byte big-endian key
// prefix).
func PrefixKeyExtractor(n int) KeyExtractor {
	return func(req msg.Request) []byte {
		if len(req.Command) < n {
			return req.Command
		}
		return req.Command[:n]
	}
}

// KeyedCommand builds a command carrying an 8-byte big-endian key prefix
// followed by the payload; PrefixKeyExtractor(8) recovers the key.
func KeyedCommand(key uint64, payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint64(out[:8], key)
	copy(out[8:], payload)
	return out
}

// KVKeyExtractor keys requests by the key of their encoded KV command
// (app.EncodeKVPut/Get/Delete), so every operation on one key routes to the
// same shard regardless of the operation type; malformed commands fall back
// to the full command.
func KVKeyExtractor(req msg.Request) []byte {
	if key, ok := app.KVKey(req.Command); ok {
		return []byte(key)
	}
	return req.Command
}

// ShardOf returns the shard a key belongs to: a deterministic FNV-1a hash of
// the key modulo the shard count.
func ShardOf(key []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write(key)
	return int(h.Sum64() % uint64(shards))
}
