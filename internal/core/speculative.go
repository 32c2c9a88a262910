package core

import (
	"context"
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// The commit rule's working state. An answer is what one replica said about
// one request; a bucket counts the replicas that gave one answer. At most
// N = 3f+1 replicas answer and so at most N answers differ, so a request's
// votes (by replica index) and buckets (in order of appearance) live in N
// slots searched linearly instead of maps. The storage is flat and
// pointer-free towards itself — request i owns slots[i*N:(i+1)*N] — so the
// one-request caller can keep all of it on its stack.
type (
	commitAnswer struct {
		historyDigest authn.Digest
		replyDigest   authn.Digest
	}
	commitSlot struct {
		// vote is what the replica with this slot's index answered.
		vote commitAnswer
		cast bool
		// bucket is the slot's-index-th distinct answer seen.
		bucket  commitAnswer
		votes   int
		reply   []byte
		digests history.DigestHistory
	}
	commitState struct {
		cast, buckets int
		committed     bool
		// hopeless is set when all 3f+1 replicas answered with divergent
		// digests: the request can no longer reach N matching replies.
		hopeless bool
	}
)

// AwaitBatchSpeculativeCommit runs the speculative commit rule of
// AwaitSpeculativeCommit for every request of a client-side batch in one
// receive loop: request i commits when all 3f+1 replicas return RESP messages
// for it with identical history digests and identical replies. It returns one
// outcome per request (in order) and true when every request committed;
// uncommitted requests have Committed=false and the caller decides whether to
// panic or retry them individually.
func AwaitBatchSpeculativeCommit(ctx context.Context, env ClientEnv, instance InstanceID, reqs []msg.Request, timeout time.Duration) ([]Outcome, bool, error) {
	outs := make([]Outcome, len(reqs))
	states := make([]commitState, len(reqs))
	slots := make([]commitSlot, len(reqs)*env.Cluster.N)
	all, err := awaitCommits(ctx, env, instance, reqs, outs, states, slots, timeout)
	return outs, all, err
}

// awaitCommits is the commit rule over caller-provided zeroed storage: one
// outcome and one state per request, N slots per request.
func awaitCommits(ctx context.Context, env ClientEnv, instance InstanceID, reqs []msg.Request, outs []Outcome, states []commitState, slots []commitSlot, timeout time.Duration) (bool, error) {
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
	remaining := 0
	for i := range reqs {
		if first(reqs[i].Timestamp) == i {
			remaining++
		}
	}

	w := env.Await(ctx, timeout)
	defer w.Done()
	for remaining > 0 {
		env2, ok, err := w.Next()
		if err != nil || !ok {
			return false, err
		}
		resp, isResp := env2.Payload.(*RespMessage)
		if !isResp || resp.Instance != instance {
			continue
		}
		i := first(resp.Timestamp)
		if i < 0 || states[i].committed {
			continue
		}
		replica := env2.From
		if !replica.IsReplica() || int(replica) >= n {
			continue
		}
		macBytes := resp.MACBytes(replica)
		if err := env.Keys.VerifyMAC(replica, env.ID, macBytes[:], resp.MAC); err != nil {
			continue
		}
		st := &states[i]
		mine := slots[i*n : (i+1)*n]
		key := commitAnswer{historyDigest: resp.HistoryDigest, replyDigest: resp.ReplyDigest}
		v := &mine[replica]
		if v.cast && v.vote != key {
			// A replica changed its answer: divergence, give up on the
			// whole batch (the caller falls back to panicking).
			return false, nil
		}
		j := 0
		for j < st.buckets && mine[j].bucket != key {
			j++
		}
		b := &mine[j]
		if j == st.buckets {
			b.bucket = key
			st.buckets++
		}
		if !v.cast {
			v.vote, v.cast = key, true
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
		if !st.committed && !st.hopeless && st.cast == n && st.buckets > 1 {
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
				return false, nil
			}
		}
	}
	return true, nil
}

// InvokeSpeculative is the client side of the speculative instances, ZLight
// (Steps Z1 and Z4) and Quorum (Steps Q1 and Q3): send the REQ to dests, wait
// up to timeout for the commit rule of AwaitSpeculativeCommit, and run the
// panicking mechanism otherwise.
func InvokeSpeculative(ctx context.Context, env ClientEnv, instance InstanceID, req msg.Request, init *InitHistory, dests []ids.ProcessID, timeout time.Duration) (Outcome, error) {
	transport.Multicast(env.Endpoint, dests, env.NewRequest(instance, req, init))
	out, committed, err := AwaitSpeculativeCommit(ctx, env, instance, req, timeout)
	if err != nil {
		return Outcome{}, err
	}
	if committed {
		return out, nil
	}
	return PanicAndAbort(ctx, env, instance, req, init)
}

// soloReplicas is the cluster size up to which the one-request rule keeps its
// slots on the stack (f <= 2).
const soloReplicas = 7

// AwaitSpeculativeCommit implements the client-side commit rule shared by
// ZLight (Step Z4) and Quorum (Step Q3): wait until all 3f+1 replicas return
// RESP messages with identical history digests and identical replies (or
// reply digests), within the given timeout. It returns the commit outcome and
// true when the rule was met; otherwise it returns false and the caller
// triggers the panicking mechanism. It is the degenerate one-request case of
// AwaitBatchSpeculativeCommit, so the safety-critical rule exists once; its
// working state lives on the stack, so a closed-loop client allocates nothing
// per request here but the reply it returns.
func AwaitSpeculativeCommit(ctx context.Context, env ClientEnv, instance InstanceID, req msg.Request, timeout time.Duration) (Outcome, bool, error) {
	var (
		reqs   = [1]msg.Request{req}
		outs   [1]Outcome
		states [1]commitState
		stack  [soloReplicas]commitSlot
	)
	slots := stack[:]
	if env.Cluster.N > len(stack) {
		slots = make([]commitSlot, env.Cluster.N)
	}
	all, err := awaitCommits(ctx, env, instance, reqs[:], outs[:], states[:], slots, timeout)
	if err != nil || !all {
		return Outcome{}, false, err
	}
	return outs[0], true, nil
}
