package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
)

// This file implements the node-level recovery control plane: the messages
// and vote collection a freshly restarted replica process uses to rejoin a
// live sharded plane over any transport.Endpoint (TCP included), and the
// automatic re-agreement retry that keeps a pinned per-shard state sync from
// stalling when live peers' GC floors prune the pinned boundary under
// continuous traffic.
//
// The in-process crash-restart harness used to collect the merged boundary
// by calling Exec.MergedSnapshot on its peers directly — impossible across a
// process boundary. MergedQuery/MergedState move that collection onto the
// wire (the router's control channel, so it shares the one physical endpoint
// with all S shards), and Node.RecoverFromPeers drives the whole rejoin:
// collect an f+1-agreed merged boundary, restore the merged mirror, start
// the sub-hosts, and pin each shard's FETCH-STATE at the restored boundary.

// MergedQuery asks a peer node for its merged-mirror state: the recovering
// replica multicasts it on the control channel and accumulates the answers
// until f+1 distinct peers vouch for the same boundary.
type MergedQuery struct {
	// From is the querying replica.
	From ids.ProcessID
	// StateFrom designates the one peer asked to include the serialized
	// merged application; every other responder answers with digests only,
	// so a collection round costs one state transfer instead of 3f (the
	// digest-first rule statesync.FetchState.BodiesFrom established). The
	// querier rotates the designation across rounds, so a crashed or lying
	// designated peer only delays the collection.
	StateFrom ids.ProcessID
}

// MergedState answers a MergedQuery: the responder's merged sequence length,
// merged digest chain, and — when the responder was designated — the
// serialized merged application. Votes are keyed by (Seq, Digest, AppHash),
// so a peer agreeing on the identity but shipping different bytes forms its
// own group and cannot sneak a forged application state into an honest
// agreement. Like statesync.State, the claimed sender is pinned to the
// transport-level sender, so one Byzantine peer contributes at most one
// vote.
type MergedState struct {
	// From is the responding replica.
	From ids.ProcessID
	// Seq is the responder's merged global sequence length (a round-boundary
	// multiple of shards*epoch).
	Seq uint64
	// Digest is the digest chain fold over the merged sequence.
	Digest authn.Digest
	// AppHash is the hash of the serialized merged application at Seq.
	AppHash authn.Digest
	// HasApp marks responses carrying the serialized application (the
	// designated peer); an explicit flag because an application may
	// legitimately serialize to zero bytes.
	HasApp bool
	// App is the serialized merged application (designated responses only).
	App []byte
}

// mergedKey is the agreement identity of one merged boundary. The merged
// state is a pure function of the agreed per-shard histories, so equal keys
// across f+1 distinct replicas pin it to at least one correct replica.
type mergedKey struct {
	seq     uint64
	dig     authn.Digest
	appHash authn.Digest
}

// mergedCollector accumulates MergedState votes across collection rounds.
// Votes are cumulative on purpose: under continuous traffic the peers'
// mirrors advance between polls, so a single instantaneous sample rarely
// catches f+1 peers at the same boundary — but every peer passes through
// every round boundary, so distinct peers' reports of the same (seq, digest,
// app-hash) accumulate into an agreement even when they were observed at
// different times.
type mergedCollector struct {
	mu     sync.Mutex
	need   int
	votes  map[mergedKey]map[ids.ProcessID]bool
	states map[mergedKey][]byte
	has    map[mergedKey]bool
}

func newMergedCollector(f int) *mergedCollector {
	return &mergedCollector{
		need:   f + 1,
		votes:  make(map[mergedKey]map[ids.ProcessID]bool),
		states: make(map[mergedKey][]byte),
		has:    make(map[mergedKey]bool),
	}
}

// add records one peer's vote; application bytes are kept only when they
// hash to the claimed identity.
func (c *mergedCollector) add(m *MergedState) {
	key := mergedKey{seq: m.Seq, dig: m.Digest, appHash: m.AppHash}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.votes[key] == nil {
		c.votes[key] = make(map[ids.ProcessID]bool)
	}
	c.votes[key][m.From] = true
	if m.HasApp && !c.has[key] && authn.Hash(m.App) == m.AppHash {
		c.states[key] = m.App
		c.has[key] = true
	}
}

// best returns the highest boundary at or above minSeq that f+1 distinct
// peers agree on and whose application bytes have arrived and verified.
func (c *mergedCollector) best(minSeq uint64) (mergedKey, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var bestKey mergedKey
	found := false
	for key, vs := range c.votes {
		if len(vs) < c.need || key.seq < minSeq || !c.has[key] {
			continue
		}
		if !found || key.seq > bestKey.seq {
			bestKey = key
			found = true
		}
	}
	if !found {
		return mergedKey{}, nil, false
	}
	return bestKey, c.states[bestKey], true
}

// startControl launches the node's control loop (idempotent): it answers
// peers' MergedQuery messages from the live merged mirror and feeds
// MergedState responses into the collector of an in-flight recovery.
func (n *Node) startControl() {
	n.ctrlOnce.Do(func() {
		n.ctrlDone = make(chan struct{})
		go n.runControl()
	})
}

func (n *Node) runControl() {
	defer close(n.ctrlDone)
	ep := n.Router.Control()
	for env := range ep.Inbox() {
		switch m := env.Payload.(type) {
		case *MergedQuery:
			// Pin the claimed sender to the transport sender (one vote per
			// distinct peer at the querier) and never answer clients.
			if !m.From.IsReplica() || m.From != env.From || m.From == n.cfg.Replica {
				continue
			}
			seq, dig, app := n.Exec.MergedSnapshot()
			resp := &MergedState{From: n.cfg.Replica, Seq: seq, Digest: dig, AppHash: authn.Hash(app)}
			if m.StateFrom == n.cfg.Replica {
				resp.HasApp = true
				resp.App = app
			}
			ep.Send(m.From, resp)
		case *MergedState:
			if !m.From.IsReplica() || m.From != env.From {
				continue
			}
			n.recMu.Lock()
			if n.rec != nil {
				n.rec.add(m)
			}
			n.recMu.Unlock()
		}
	}
}

// peers returns the other replicas of the plane.
func (n *Node) peers() []ids.ProcessID {
	out := make([]ids.ProcessID, 0, n.cfg.Cluster.N-1)
	for _, r := range n.cfg.Cluster.Replicas() {
		if r != n.cfg.Replica {
			out = append(out, r)
		}
	}
	return out
}

// askMerged multicasts one MergedQuery round, designating the next peer in
// rotation to ship the serialized merged application.
func (n *Node) askMerged() {
	peers := n.peers()
	if len(peers) == 0 {
		return
	}
	n.recMu.Lock()
	designated := peers[n.recAsks%len(peers)]
	n.recAsks++
	n.recMu.Unlock()
	ep := n.Router.Control()
	q := &MergedQuery{From: n.cfg.Replica, StateFrom: designated}
	for _, p := range peers {
		ep.Send(p, q)
	}
}

// recoverInterval is the collection/re-agreement poll period.
func (n *Node) recoverInterval() time.Duration {
	if n.cfg.RecoverRetryInterval > 0 {
		return n.cfg.RecoverRetryInterval
	}
	return DefaultRecoverRetryInterval
}

// RecoverFromPeers drives a crash-restarted node's whole rejoin over the
// network, and must be called instead of Start: it multicasts MergedQuery
// rounds until f+1 distinct peers vouch for one merged boundary (votes
// accumulate across rounds, so peers observed at different instants of a
// moving plane still converge on an agreement), then adopts that boundary
// via Recover — restoring the merged mirror, starting the sub-hosts, and
// pinning every shard's state sync at the boundary. The per-shard transfers
// complete asynchronously under the re-agreement monitor Recover starts
// (poll Syncing). It fails only when the context expires before any f+1
// agreement forms (fewer than f+1 live peers).
func (n *Node) RecoverFromPeers(ctx context.Context) error {
	n.startControl()
	col := newMergedCollector(n.cfg.Cluster.F)
	n.recMu.Lock()
	n.rec = col
	n.recMu.Unlock()

	interval := n.recoverInterval()
	n.askMerged()
	nextAsk := time.Now().Add(interval)
	check := time.NewTicker(interval / 8)
	defer check.Stop()
	for {
		select {
		case <-ctx.Done():
			n.recMu.Lock()
			n.rec = nil
			n.recMu.Unlock()
			return fmt.Errorf("shard: no f+1-agreed merged boundary among live peers: %w", ctx.Err())
		case <-check.C:
			if key, app, ok := col.best(0); ok {
				return n.Recover(key.seq, key.dig, app)
			}
			if time.Now().After(nextAsk) {
				n.askMerged()
				nextAsk = time.Now().Add(interval)
			}
		}
	}
}

// pinShardSyncs pins every sub-host's state transfer at (or below) the
// per-shard position of the merged boundary, so the transferred suffix feeds
// seamlessly into the restored mirror.
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

// startReagreement launches the re-agreement monitor (idempotent): while any
// sub-host's pinned sync is still in flight, it keeps collecting the peers'
// merged boundaries, and whenever a newer f+1-agreed boundary appears it
// re-restores the merged mirror there and re-pins every shard's sync. A
// pinned boundary that live peers pruned under continuous traffic (their GC
// retention floors advance with their own mirrors) therefore re-collects and
// re-pins instead of stalling forever.
func (n *Node) startReagreement() {
	n.recMu.Lock()
	defer n.recMu.Unlock()
	if n.rec == nil {
		n.rec = newMergedCollector(n.cfg.Cluster.F)
	}
	if n.recStop != nil {
		return
	}
	n.recStop = make(chan struct{})
	n.recDone = make(chan struct{})
	go n.runReagreement(n.recStop, n.recDone)
}

func (n *Node) runReagreement(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(n.recoverInterval())
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if !n.Syncing() {
				// Recovery complete: stop collecting votes.
				n.recMu.Lock()
				n.rec = nil
				n.recMu.Unlock()
				return
			}
			n.recMu.Lock()
			col := n.rec
			pinned := n.recPinned
			n.recMu.Unlock()
			if col == nil {
				return
			}
			if key, app, ok := col.best(pinned + 1); ok {
				// A newer agreed boundary: re-restore and re-pin. RestoreMerged
				// rejects boundaries behind the already-merged sequence; that
				// only means this node advanced past the collected sample, so
				// the next round collects a fresher one.
				if err := n.Exec.RestoreMerged(key.seq, key.dig, app); err == nil {
					n.recMu.Lock()
					n.recPinned = key.seq
					n.recMu.Unlock()
					n.pinShardSyncs(key.seq)
					n.Exec.met.reagreed.Inc()
					n.cfg.Flight.Record("reagree", -1,
						"re-agreed merged boundary %d (pinned %d was stalled)", key.seq, pinned)
					if n.cfg.Logger != nil {
						n.cfg.Logger.Printf("shard: re-agreed merged boundary %d (pinned %d was stalled)", key.seq, pinned)
					}
				}
			}
			// Ask after checking so this round's responses are in by the next
			// tick.
			n.askMerged()
		}
	}
}
