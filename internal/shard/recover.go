package shard

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"slices"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/transport"
)

// This file implements the node-level recovery control plane: the messages
// and vote collection a freshly restarted replica process uses to rejoin a
// live sharded plane over any transport.Endpoint (TCP included), and the
// re-agreement that keeps a pinned per-shard state sync from stalling when
// live peers' GC floors prune the pinned boundary under continuous traffic.
//
// MergedQuery/MergedState carry the collection on the router's control
// channel, so it shares the one physical endpoint with all S shards. The
// node loop (Node.run) does all of it: collect an f+1-agreed merged
// boundary, restore the merged mirror, start the sub-hosts, and pin each
// shard's FETCH-STATE at the restored boundary — for the first agreement and
// for every newer one that arrives while a shard still syncs.

// pollTicks is the recovery poll period in node-loop ticks: 50 ticks of
// nullOpInterval, 100 ms. While a recovery is in flight the node loop
// re-asks its peers for their merged boundaries this often and checks
// whether every shard has finished syncing, so under continuous traffic a
// pruned pinned boundary re-pins within about one period of a newer
// agreement. The tick's pulse collapses the ticks that fall due while the
// loop is busy into one, so the period is at least 100 ms.
const pollTicks = 50

// MergedQuery asks a peer node for its merged-mirror boundary: the
// recovering replica multicasts it on the control channel and accumulates
// the answers until f+1 distinct peers vouch for the same boundary. The peer
// answers the envelope's sender.
type MergedQuery struct{}

// MergedState answers a MergedQuery with the responder's merged sequence
// length and merged digest chain. It is the vote of the envelope's sender,
// and carries a MAC from that sender to the querier: one Byzantine process
// contributes at most its own vote.
type MergedState struct {
	// Seq is the responder's merged global sequence length (a round-boundary
	// multiple of shards*epoch).
	Seq uint64
	// Digest is the digest chain fold over the merged sequence.
	Digest authn.Digest
	// MAC authenticates mergedVoteBytes(Seq, Digest) from the responder to
	// the querier.
	MAC authn.MAC
}

// mergedVoteBytes is the MAC input of a MergedState vote: seq‖digest.
func mergedVoteBytes(seq uint64, dig authn.Digest) (buf [8 + authn.DigestSize]byte) {
	binary.BigEndian.PutUint64(buf[:8], seq)
	copy(buf[8:], dig[:])
	return buf
}

// mergedKey is the agreement identity of one merged boundary. The merged
// sequence is a pure function of the agreed per-shard histories, so equal
// keys across f+1 distinct replicas pin it to at least one correct replica.
type mergedKey struct {
	seq uint64
	dig authn.Digest
}

// mergedCollector accumulates MergedState votes across collection rounds.
// Votes are cumulative on purpose: under continuous traffic the peers'
// mirrors advance between polls, so a single instantaneous sample rarely
// catches f+1 peers at the same boundary — but every peer passes through
// every round boundary, so distinct peers' reports of the same (seq, digest)
// accumulate into an agreement even when they were observed at different
// times. Each voter holds at most maxMergedVotes keys, so votes stays below
// n·maxMergedVotes keys however many boundaries a faulty peer MACs. Only the
// node loop touches it.
type mergedCollector struct {
	need  int
	votes map[mergedKey]map[ids.ProcessID]bool
	// held lists each voter's keys in votes, in ascending seq order.
	held map[ids.ProcessID][]mergedKey
}

// maxMergedVotes bounds the keys one voter holds. A voter keeps its newest
// (highest) boundaries: a correct peer's mirror only moves forward, and best
// prefers the highest agreed boundary, so its older votes matter least.
const maxMergedVotes = 8

func newMergedCollector(cluster ids.Cluster) *mergedCollector {
	return &mergedCollector{
		need:  cluster.WeakQuorum(),
		votes: make(map[mergedKey]map[ids.ProcessID]bool),
		held:  make(map[ids.ProcessID][]mergedKey),
	}
}

// add records peer from's (authenticated) vote. Keys below floor, the lowest
// boundary the loop can still adopt, are never adoptable (best ignores
// them), so the vote is dropped when it lies there, and so are the voter's
// keys that fell below it since; past maxMergedVotes the voter's oldest key
// goes, the new one included when it is older still.
func (c *mergedCollector) add(from ids.ProcessID, m *MergedState, floor uint64) {
	key := mergedKey{seq: m.Seq, dig: m.Digest}
	if key.seq < floor || c.votes[key][from] {
		return
	}
	if c.votes[key] == nil {
		c.votes[key] = make(map[ids.ProcessID]bool)
	}
	c.votes[key][from] = true
	held := append(c.held[from], key)
	slices.SortFunc(held, func(a, b mergedKey) int { return cmp.Compare(a.seq, b.seq) })
	cut := 0
	for ; cut < len(held) && (held[cut].seq < floor || len(held)-cut > maxMergedVotes); cut++ {
		k := held[cut]
		if delete(c.votes[k], from); len(c.votes[k]) == 0 {
			delete(c.votes, k)
		}
	}
	c.held[from] = held[cut:]
}

// best returns the highest boundary at or above minSeq that f+1 distinct
// peers agree on.
func (c *mergedCollector) best(minSeq uint64) (mergedKey, bool) {
	var bestKey mergedKey
	found := false
	for key, vs := range c.votes {
		if len(vs) < c.need || key.seq < minSeq {
			continue
		}
		if !found || key.seq > bestKey.seq {
			bestKey = key
			found = true
		}
	}
	return bestKey, found
}

// join is what Start, Recover and RecoverFromPeers hand the node loop.
type join struct {
	// ctx bounds the wait for a first agreement; nil is a plain Start.
	ctx context.Context
	// fixed marks Recover's caller-verified boundary (seq, dig); otherwise
	// the loop collects one from the peers.
	fixed bool
	seq   uint64
	dig   authn.Digest
	done  chan error
}

var errStopped = errors.New("shard: node stopped")

// hand passes j to the node loop and waits for its answer.
func (n *Node) hand(j *join) error {
	j.done = make(chan error, 1)
	n.mu.Lock()
	n.joins = append(n.joins, j)
	n.mu.Unlock()
	n.Router.Control().Wake()
	select {
	case err := <-j.done:
		return err
	case <-n.done:
		return errStopped
	}
}

// nodeLoop is the state the node loop owns; no other goroutine touches it.
type nodeLoop struct {
	n       *Node
	ctrl    transport.Endpoint
	peers   []ids.ProcessID
	started bool
	// col collects merged votes while a recovery is in flight (nil
	// otherwise).
	col *mergedCollector
	// waiter is the join still waiting for its first agreement; unwake
	// cancels the wake-up its context's end posts to the control inbox.
	waiter *join
	unwake func() bool
	// pinned is the boundary the shard syncs are pinned at; next is the
	// lowest boundary a newer agreement may adopt.
	pinned, next uint64
}

// join starts the sub-hosts (Start) or begins a recovery: Recover adopts its
// boundary at once, RecoverFromPeers waits for an f+1 agreement. Either way
// the loop keeps collecting until every shard has synced.
func (l *nodeLoop) join(j *join) {
	if j.ctx == nil {
		l.start()
		j.done <- nil
		return
	}
	l.unwatch()
	l.waiter = j
	l.unwake = context.AfterFunc(j.ctx, l.ctrl.Wake)
	if l.col == nil {
		l.col = newMergedCollector(l.n.cfg.Cluster)
	}
	if j.fixed {
		l.adopt(j.seq, j.dig)
	}
	if l.col != nil {
		l.ask()
	}
}

// start starts every sub-host's event loop, once.
func (l *nodeLoop) start() {
	if l.started {
		return
	}
	l.started = true
	for _, h := range l.n.Hosts {
		h.Start()
	}
}

// answer replies to the waiting join.
func (l *nodeLoop) answer(err error) {
	l.waiter.done <- err
	l.waiter = nil
	l.unwatch()
}

// unwatch cancels the waiting join's context wake-up, if any.
func (l *nodeLoop) unwatch() {
	if l.unwake != nil {
		l.unwake()
		l.unwake = nil
	}
}

// adopt is the one recovery step, for the first agreement and for every
// newer one: restore the merged mirror at the boundary, start the sub-hosts
// (once), and pin every shard's state transfer at or below the boundary so
// the transferred suffix feeds seamlessly into the restored mirror.
func (l *nodeLoop) adopt(seq uint64, dig authn.Digest) {
	n := l.n
	if err := n.Exec.RestoreMerged(seq, dig); err != nil {
		if l.waiter != nil {
			l.col = nil
			l.answer(err)
			return
		}
		// A newer boundary behind the merged sequence only means this node
		// merged past the sample; a later round collects a fresher one.
		l.next = seq + 1
		return
	}
	l.start()
	n.pinShardSyncs(seq)
	if l.waiter != nil {
		l.answer(nil)
	} else {
		n.Exec.met.reagreed.Inc()
		n.cfg.Flight.Record("reagree", -1, "re-agreed merged boundary %d (pinned %d was stalled)", seq, l.pinned)
		n.logf("shard: re-agreed merged boundary %d (pinned %d was stalled)", seq, l.pinned)
	}
	l.pinned, l.next = seq, seq+1
}

// ask multicasts one MergedQuery round.
func (l *nodeLoop) ask() {
	q := &MergedQuery{}
	for _, p := range l.peers {
		l.ctrl.Send(p, q)
	}
}

// poll runs every pollTicks ticks while a recovery is in flight. Once a boundary
// is adopted, the recovery is complete when no shard syncs any more; while
// one still does, a newer f+1-agreed boundary is adopted in its place (the
// pinned one may have been pruned by the peers). Then it asks the peers
// again.
func (l *nodeLoop) poll() {
	n := l.n
	if l.waiter == nil {
		if !n.Syncing() {
			l.col = nil
			seq := n.Exec.MergedSeq()
			n.cfg.Flight.Record("recovered", -1, "all shards synced, merged seq %d", seq)
			n.logf("replica %v recovered: all shards synced, merged seq %d", n.cfg.Replica, seq)
			return
		}
		if key, ok := l.col.best(l.next); ok {
			l.adopt(key.seq, key.dig)
		}
	}
	l.ask()
}

// control handles one message of the control channel: it answers a peer's
// MergedQuery from the live merged mirror and counts a MergedState vote.
func (l *nodeLoop) control(env transport.Envelope) {
	n := l.n
	self, from := n.cfg.Replica, env.From
	if !from.IsReplica() || from == self {
		// Never answer or count clients.
		return
	}
	switch m := env.Payload.(type) {
	case *MergedQuery:
		seq, dig := n.Exec.MergedSnapshot()
		data := mergedVoteBytes(seq, dig)
		l.ctrl.Send(from, &MergedState{Seq: seq, Digest: dig, MAC: n.cfg.Keys.MAC(self, from, data[:])})
	case *MergedState:
		if l.col == nil {
			return
		}
		data := mergedVoteBytes(m.Seq, m.Digest)
		if n.cfg.Keys.VerifyMAC(from, self, data[:], m.MAC) != nil {
			return
		}
		l.col.add(from, m, l.next)
		// The first agreement is adopted as soon as it forms; newer ones
		// wait for poll, which adopts them only while a shard still syncs.
		if l.waiter == nil {
			return
		}
		if key, ok := l.col.best(l.next); ok {
			l.adopt(key.seq, key.dig)
		}
	}
}

// Recover catches a freshly restarted node up to the live plane from a
// merged boundary the caller has verified against f+1 peers (merged state is
// a pure function of the agreed per-shard histories, so equal (seq, digest)
// across f+1 nodes pins it; RecoverFromPeers performs that collection over
// the network). It must be called instead of Start, before any traffic
// reaches the node.
//
// The node loop restores the merged mirror there, starts the sub-hosts and
// pins every shard's state sync at the boundary. The peers' GC retention
// floors advance with their own merged mirrors, so under heavy traffic a peer
// can prune the pinned snapshot before f+1 responses land; while any shard
// still syncs, the loop therefore keeps collecting the peers' merged
// boundaries and adopts every newer f+1-agreed one the same way.
func (n *Node) Recover(mergedSeq uint64, mergedDigest authn.Digest) error {
	return n.hand(&join{ctx: context.Background(), fixed: true, seq: mergedSeq, dig: mergedDigest})
}

// RecoverFromPeers drives a crash-restarted node's whole rejoin over the
// network, and must be called instead of Start: the node loop multicasts
// MergedQuery rounds until f+1 distinct peers vouch for one merged boundary
// (votes accumulate across rounds, so peers observed at different instants
// of a moving plane still converge on an agreement), then adopts it as
// Recover does. The per-shard transfers complete asynchronously (poll
// Syncing); the node logs and flight-records the completion. It fails only
// when the context expires before any f+1 agreement forms (fewer than f+1
// live peers).
func (n *Node) RecoverFromPeers(ctx context.Context) error {
	return n.hand(&join{ctx: ctx})
}

// pinShardSyncs pins every sub-host's state transfer at (or below) the
// per-shard position of the merged boundary.
func (n *Node) pinShardSyncs(mergedSeq uint64) {
	perShard := mergedSeq / uint64(len(n.Hosts))
	if perShard == 0 {
		// Nothing merged yet: pin the per-shard snapshots to boundary 0 (a
		// maxSeq of 0 would mean "the peers' stable checkpoint", which could
		// lie beyond the restored merge boundary and leave the mirror a
		// permanent gap).
		perShard = 1
	}
	for _, h := range n.Hosts {
		h.SyncState(perShard)
	}
}

// Syncing reports whether any sub-host's pinned state transfer is still in
// flight (the recovery is complete once it returns false).
func (n *Node) Syncing() bool {
	for _, h := range n.Hosts {
		if h.Syncing() {
			return true
		}
	}
	return false
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logger != nil {
		n.cfg.Logger.Printf(format, args...)
	}
}
