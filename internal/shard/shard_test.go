package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// Key partitioning must be a pure function of the key: stable across calls,
// independent of who computes it, and every shard reachable.
func TestShardOfDeterministicAndCovering(t *testing.T) {
	const shards = 4
	hit := make([]int, shards)
	for i := 0; i < 1024; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		s := ShardOf(key, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf out of range: %d", s)
		}
		if again := ShardOf(key, shards); again != s {
			t.Fatalf("ShardOf not deterministic: %d then %d", s, again)
		}
		hit[s]++
	}
	for s, n := range hit {
		if n == 0 {
			t.Fatalf("shard %d unreachable over 1024 distinct keys", s)
		}
	}
	if ShardOf([]byte("anything"), 1) != 0 {
		t.Fatal("single-shard planes must route everything to shard 0")
	}
}

// Operations of one KV key must land on one shard regardless of the
// operation type, or per-key linearizability breaks.
func TestKVKeyExtractorRoutesOperationsTogether(t *testing.T) {
	put := msg.Request{Command: app.EncodeKVPut("lang", "go")}
	get := msg.Request{Command: app.EncodeKVGet("lang")}
	del := msg.Request{Command: app.EncodeKVDelete("lang")}
	const shards = 7
	want := ShardOf(KVKeyExtractor(put), shards)
	for _, req := range []msg.Request{get, del} {
		if got := ShardOf(KVKeyExtractor(req), shards); got != want {
			t.Fatalf("operation routed to shard %d, put went to %d", got, want)
		}
	}
}

func TestKeyedCommandRoundTrip(t *testing.T) {
	cmd := KeyedCommand(42, []byte("payload"))
	extract := PrefixKeyExtractor(8)
	key := extract(msg.Request{Command: cmd})
	if len(key) != 8 {
		t.Fatalf("prefix key has %d bytes, want 8", len(key))
	}
	other := extract(msg.Request{Command: KeyedCommand(42, []byte("different"))})
	if string(key) != string(other) {
		t.Fatal("same key must extract identically regardless of payload")
	}
}

func reqOf(client, ts uint64, payload string) msg.Request {
	return msg.Request{Client: ids.Client(int(client)), Timestamp: ts, Command: []byte(payload)}
}

// referenceMerge computes the documented merge: round r carries positions
// [r*E, (r+1)*E) of shard 0, then shard 1, ….
func referenceMerge(perShard [][]msg.Request, epoch int) (uint64, authn.Digest) {
	rounds := -1
	for _, h := range perShard {
		r := len(h) / epoch
		if rounds < 0 || r < rounds {
			rounds = r
		}
	}
	var acc authn.Digest
	var n uint64
	for r := 0; r < rounds; r++ {
		for _, h := range perShard {
			for _, req := range h[r*epoch : (r+1)*epoch] {
				d := req.Digest()
				acc = authn.HashAll(acc[:], d[:])
				n++
			}
		}
	}
	return n, acc
}

// The cross-shard merge must be a pure function of the per-shard histories:
// whatever order spans arrive in (even per-shard out of order), the merged
// sequence and digest chain converge to the epoch-round reference.
func TestExecutorCrossShardMergeOrdering(t *testing.T) {
	const shards, epoch = 3, 2
	perShard := make([][]msg.Request, shards)
	for s := 0; s < shards; s++ {
		for p := 0; p < 6; p++ {
			perShard[s] = append(perShard[s], reqOf(uint64(s), uint64(p+1), fmt.Sprintf("s%dp%d", s, p)))
		}
	}
	wantSeq, wantDigest := referenceMerge(perShard, epoch)
	if wantSeq != shards*6 {
		t.Fatalf("reference covers %d, want %d", wantSeq, shards*6)
	}

	feedOrders := [][3]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}}
	for _, order := range feedOrders {
		e := NewExecutor(ExecutorConfig{Shards: shards, Epoch: epoch})
		for _, s := range order {
			// Feed this shard's span with its tail first (out of order), so
			// the per-shard sequencer has to restore position order.
			for p := len(perShard[s]) - 1; p >= 0; p-- {
				e.OnLogged(s, uint64(p), perShard[s][p])
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for e.MergedSeq() < wantSeq && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := e.MergedSeq(); got != wantSeq {
			t.Fatalf("order %v: merged %d requests, want %d", order, got, wantSeq)
		}
		if got := e.MergedDigest(); got != wantDigest {
			t.Fatalf("order %v: merged digest diverged from the epoch-round reference", order)
		}
		e.Stop()
	}
}

// Duplicate deliveries of a position must not advance the merge twice.
func TestExecutorIgnoresDuplicatePositions(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Shards: 1, Epoch: 1})
	defer e.Stop()
	r := reqOf(0, 1, "once")
	e.OnLogged(0, 0, r)
	e.OnLogged(0, 0, r)
	e.OnLogged(0, 1, reqOf(0, 2, "two"))
	deadline := time.Now().Add(2 * time.Second)
	for e.MergedSeq() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := e.MergedSeq(); got != 2 {
		t.Fatalf("merged %d, want 2", got)
	}
	want := history.DigestHistory{r.Digest(), reqOf(0, 2, "two").Digest()}.Digest()
	if e.MergedDigest() != want {
		t.Fatal("duplicate delivery changed the merged sequence")
	}
}

// The router must deliver each shard's traffic only to that shard's
// endpoint, wrap outgoing sends, and expand coalesced packs.
func TestRouterShardIsolation(t *testing.T) {
	// Executor/merge not involved: pure routing.
	netw := newLoopEndpoint()
	r := NewRouter(netw, 2)
	defer r.Close()
	netw.inject(&Mark{Shard: 1, Payload: "for-one"})
	netw.inject("unmarked-goes-to-zero")
	select {
	case env := <-r.Endpoint(1).Inbox():
		if env.Payload != "for-one" {
			t.Fatalf("shard 1 received %v", env.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("shard 1 message not routed")
	}
	select {
	case env := <-r.Endpoint(0).Inbox():
		if env.Payload != "unmarked-goes-to-zero" {
			t.Fatalf("shard 0 received %v", env.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("unmarked message not routed to shard 0")
	}
	r.Endpoint(1).Send(ids.Replica(0), "out")
	sent := netw.lastSent()
	mk, ok := sent.(*Mark)
	if !ok || mk.Shard != 1 || mk.Payload != "out" {
		t.Fatalf("outgoing send not wrapped with the shard mark: %#v", sent)
	}
}

// loopEndpoint is a minimal transport.Endpoint test double: its mailbox is
// the receive side, inject delivers into it, and lastSent records the most
// recent outgoing payload.
type loopEndpoint struct {
	*transport.Mailbox
	mu   sync.Mutex
	sent []any
}

func newLoopEndpoint() *loopEndpoint {
	return &loopEndpoint{Mailbox: transport.NewMailbox(ids.Replica(0), 64)}
}

func (l *loopEndpoint) ID() ids.ProcessID { return ids.Replica(0) }

func (l *loopEndpoint) Send(to ids.ProcessID, payload any) {
	l.mu.Lock()
	l.sent = append(l.sent, payload)
	l.mu.Unlock()
}

func (l *loopEndpoint) inject(payload any) {
	l.Deliver(transport.Envelope{From: ids.Client(0), To: ids.Replica(0), Payload: payload})
}

func (l *loopEndpoint) lastSent() any {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.sent) == 0 {
		return nil
	}
	return l.sent[len(l.sent)-1]
}

// TestRewindMatchesReference drives a two-shard executor through random
// appends, rollbacks and stable reports, shaped as a host makes them: a
// rollback replaces a shard's tail above its last stable checkpoint, resets
// from a base at or below it, and re-feeds the adopted history from that
// base. Merges race the feeds, so rollbacks reach merged rounds as well as
// queued ones. The executor must end on the merged sequence of a reference
// fed only the final histories.
func TestRewindMatchesReference(t *testing.T) {
	const shards, epoch = 2, 2
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewExecutor(ExecutorConfig{Shards: shards, Epoch: epoch})
		hist := make([][]msg.Request, shards)
		stable := make([]int, shards)
		var ts uint64
		for step := 0; step < 300; step++ {
			s := rng.Intn(shards)
			switch op := rng.Intn(10); {
			case op < 6:
				ts++
				hist[s] = append(hist[s], reqOf(uint64(s), ts, "append"))
				e.OnLogged(s, uint64(len(hist[s])-1), hist[s][len(hist[s])-1])
			case op < 9:
				from := stable[s] + rng.Intn(len(hist[s])-stable[s]+1)
				hist[s] = hist[s][:from]
				for i := rng.Intn(3); i > 0; i-- {
					ts++
					hist[s] = append(hist[s], reqOf(uint64(s), ts, "adopted"))
				}
				base := rng.Intn(from + 1)
				e.OnReset(s, uint64(base))
				for pos := base; pos < len(hist[s]); pos++ {
					e.OnLogged(s, uint64(pos), hist[s][pos])
				}
			default:
				stable[s] += rng.Intn(len(hist[s]) - stable[s] + 1)
				e.OnStable(s, uint64(stable[s]))
			}
			if rng.Intn(8) == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
		ref := NewExecutor(ExecutorConfig{Shards: shards, Epoch: epoch})
		for s, h := range hist {
			for pos, r := range h {
				ref.OnLogged(s, uint64(pos), r)
			}
		}
		e.Stop()
		ref.Stop()
		seq, dig := e.MergedSnapshot()
		refSeq, refDig := ref.MergedSnapshot()
		if seq != refSeq || dig != refDig {
			t.Fatalf("seed %d: merged %d, reference %d (digests equal: %v)", seed, seq, refSeq, dig == refDig)
		}
	}
}

// TestSteadyMergeAllocs: under a steady rhythm of one epoch per shard and a
// stable checkpoint every few rounds, the sequencer keeps only the rounds
// above the floor, reuses the storage the floor frees and stops allocating.
// The merge loop's steps run by hand on a stopped executor.
func TestSteadyMergeAllocs(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Shards: 2, Epoch: DefaultEpoch})
	e.Stop()
	req := reqOf(0, 1, "steady")
	var pos uint64
	round := func() {
		for i := 0; i < DefaultEpoch; i++ {
			e.OnLogged(0, pos, req)
			e.OnLogged(1, pos, req)
			pos++
		}
		if pos%(4*DefaultEpoch) == 0 {
			e.OnStable(0, pos)
			e.OnStable(1, pos)
		}
		e.drainIntake()
		e.mergeRounds()
		e.trimKept()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("a steady merge rhythm allocates %.2f times per round", allocs)
	}
	if want := pos * 2; e.MergedSeq() != want {
		t.Fatalf("merged %d, want %d", e.MergedSeq(), want)
	}
	for sh, d := range e.digs {
		if len(d) > 4*DefaultEpoch || len(e.starts) > 4 {
			t.Fatalf("shard %d keeps %d digests and %d round starts above a floor at most 4 rounds back", sh, len(d), len(e.starts))
		}
	}
}
