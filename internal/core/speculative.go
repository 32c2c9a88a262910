package core

import (
	"context"
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/history"
	"abstractbft/internal/msg"
)

// AwaitBatchSpeculativeCommit runs the speculative commit rule of
// AwaitSpeculativeCommit for every request of a client-side batch in one
// receive loop: request i commits when all 3f+1 replicas return RESP messages
// for it with identical history digests and identical replies. It returns one
// outcome per request (in order) and true when every request committed;
// uncommitted requests have Committed=false and the caller decides whether to
// panic or retry them individually.
func AwaitBatchSpeculativeCommit(ctx context.Context, env ClientEnv, instance InstanceID, reqs []msg.Request, timeout time.Duration) ([]Outcome, bool, error) {
	// answer is what one replica said about one request; a bucket counts the
	// replicas that gave one answer. At most N = 3f+1 replicas answer, so
	// per-replica votes and per-answer buckets live in small slices searched
	// linearly instead of maps.
	type answer struct {
		historyDigest authn.Digest
		replyDigest   authn.Digest
	}
	type vote struct {
		answer
		cast bool
	}
	type bucket struct {
		answer
		votes   int
		reply   []byte
		digests history.DigestHistory
	}
	type reqState struct {
		votes     []vote // by replica index
		cast      int
		buckets   []bucket
		committed bool
		// hopeless is set when all 3f+1 replicas answered with divergent
		// digests: the request can no longer reach N matching replies.
		hopeless bool
	}
	n := env.Cluster.N
	// Requests are identified by timestamp; duplicate timestamps within one
	// batch (replicas answer each timestamp once) share the first
	// occurrence's state, so a duplicate can neither stall the loop nor
	// leave its outcome behind. Batches are small (a pipeline's depth), so
	// the first occurrence is found by scanning.
	first := func(ts uint64) int {
		for i := range reqs {
			if reqs[i].Timestamp == ts {
				return i
			}
		}
		return -1
	}
	states := make([]reqState, len(reqs))
	votes := make([]vote, len(reqs)*n)
	remaining := 0
	for i := range reqs {
		if first(reqs[i].Timestamp) == i {
			states[i].votes = votes[i*n : (i+1)*n]
			remaining++
		}
	}
	outs := make([]Outcome, len(reqs))

	timer := time.NewTimer(timeout)
	defer timer.Stop()

	for remaining > 0 {
		select {
		case <-ctx.Done():
			return outs, false, ctx.Err()
		case <-timer.C:
			return outs, false, nil
		case env2, ok := <-env.Endpoint.Inbox():
			if !ok {
				return outs, false, ErrStopped
			}
			resp, isResp := env2.Payload.(*RespMessage)
			if !isResp || resp.Instance != instance || resp.Client != env.ID {
				continue
			}
			i := first(resp.Timestamp)
			if i < 0 || states[i].committed {
				continue
			}
			if !resp.Replica.IsReplica() || int(resp.Replica) >= n {
				continue
			}
			env.Ops.CountMACVerify(env.ID, 1)
			macBytes := resp.MACBytes()
			if err := env.Keys.VerifyMAC(resp.Replica, env.ID, macBytes[:], resp.MAC); err != nil {
				continue
			}
			st := &states[i]
			key := answer{historyDigest: resp.HistoryDigest, replyDigest: resp.ReplyDigest}
			v := &st.votes[resp.Replica]
			if v.cast && v.answer != key {
				// A replica changed its answer: divergence, give up on the
				// whole batch (the caller falls back to panicking).
				return outs, false, nil
			}
			var b *bucket
			for j := range st.buckets {
				if st.buckets[j].answer == key {
					b = &st.buckets[j]
					break
				}
			}
			if b == nil {
				st.buckets = append(st.buckets, bucket{answer: key})
				b = &st.buckets[len(st.buckets)-1]
			}
			if !v.cast {
				*v = vote{answer: key, cast: true}
				st.cast++
				b.votes++
			}
			if b.reply == nil && authn.Hash(resp.Reply) == resp.ReplyDigest {
				b.reply = append([]byte{}, resp.Reply...)
			}
			if len(resp.HistoryDigests) > 0 {
				b.digests = resp.HistoryDigests.Clone()
			}
			if b.votes == n && b.reply != nil {
				st.committed = true
				out := Outcome{Committed: true, Reply: b.reply, CommitHistory: b.digests}
				for j := range reqs {
					if reqs[j].Timestamp == resp.Timestamp {
						outs[j] = out
					}
				}
				if env.Checker != nil {
					env.Checker.RecordCommit(instance, reqs[i], b.reply, b.digests)
				}
				remaining--
			}
			if !st.committed && !st.hopeless && st.cast == n && len(st.buckets) > 1 {
				st.hopeless = true
			}
			// Give up early once every uncommitted request is hopeless (all
			// 3f+1 replicas answered with divergent digests), mirroring the
			// single-request rule: the caller's fallback (and its panicking
			// machinery) starts without waiting for the full timeout. This
			// is re-evaluated after every state change — a commit can leave
			// only hopeless requests behind.
			if remaining > 0 {
				stuck := 0
				for j := range states {
					if states[j].hopeless && !states[j].committed {
						stuck++
					}
				}
				if stuck == remaining {
					return outs, false, nil
				}
			}
		}
	}
	return outs, true, nil
}

// AwaitSpeculativeCommit implements the client-side commit rule shared by
// ZLight (Step Z4) and Quorum (Step Q3): wait until all 3f+1 replicas return
// RESP messages with identical history digests and identical replies (or
// reply digests), within the given timeout. It returns the commit outcome and
// true when the rule was met; otherwise it returns false and the caller
// triggers the panicking mechanism. It is the degenerate one-request case of
// AwaitBatchSpeculativeCommit, so the safety-critical rule exists once.
func AwaitSpeculativeCommit(ctx context.Context, env ClientEnv, instance InstanceID, req msg.Request, timeout time.Duration) (Outcome, bool, error) {
	outs, all, err := AwaitBatchSpeculativeCommit(ctx, env, instance, []msg.Request{req}, timeout)
	if err != nil || !all {
		return Outcome{}, false, err
	}
	return outs[0], true, nil
}
