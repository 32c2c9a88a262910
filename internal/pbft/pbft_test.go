package pbft

import (
	"testing"
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// engineNet wires the engines of an f=1 cluster directly to each other
// through a synchronous message queue: every Send is queued and drain
// delivers the queue to quiescence. Messages to or from a crashed replica
// are dropped, as are those drop matches, and every engine reads one fake
// clock that advance moves.
// Clients authenticate a request over its digest, and an engine admits a
// request whose authenticator its client made.
type engineNet struct {
	t         *testing.T
	keys      *authn.KeyStore
	engines   []*Engine
	delivered [][]msg.RequestID
	// batches holds the digest of each batch a replica delivered, in order.
	batches [][]authn.Digest
	crashed map[int]bool
	drop    func(envelope) bool
	queue   []envelope
	now     time.Time
}

type envelope struct {
	from, to ids.ProcessID
	m        any
}

func newEngineNet(t *testing.T, vcTimeout time.Duration, crashed ...int) *engineNet {
	t.Helper()
	cluster := ids.NewCluster(1)
	n := &engineNet{
		t:         t,
		keys:      authn.NewKeyStore("engine-test"),
		engines:   make([]*Engine, cluster.N),
		delivered: make([][]msg.RequestID, cluster.N),
		batches:   make([][]authn.Digest, cluster.N),
		crashed:   make(map[int]bool),
		now:       time.Unix(0, 0),
	}
	for _, i := range crashed {
		n.crashed[i] = true
	}
	for i := 0; i < cluster.N; i++ {
		n.engines[i] = NewEngine(EngineConfig{
			Cluster: cluster,
			Replica: ids.Replica(i),
			Keys:    n.keys,
			Send: func(to ids.ProcessID, m any) {
				n.queue = append(n.queue, envelope{from: ids.Replica(i), to: to, m: m})
			},
			Deliver: func(batch []msg.Request) {
				n.batches[i] = append(n.batches[i], msg.Batch{Requests: batch}.Digest())
				for _, r := range batch {
					n.delivered[i] = append(n.delivered[i], r.ID())
				}
			},
			Admit: func(_ ids.ProcessID, batch []msg.Request, auths []authn.Authenticator, digests []authn.Digest) bool {
				if len(auths) != len(batch) {
					return false
				}
				for j := range batch {
					if auths[j].Sender != batch[j].Client || n.keys.Verify(auths[j], ids.Replica(i), digests[j][:]) != nil {
						return false
					}
				}
				return true
			},
			ViewChangeTimeout: vcTimeout,
			Now:               func() time.Time { return n.now },
		})
	}
	return n
}

// auth returns the authenticator client c makes for req.
func (n *engineNet) auth(c ids.ProcessID, req msg.Request) authn.Authenticator {
	d := req.Digest()
	return n.keys.NewAuthenticator(c, ids.NewCluster(1).Replicas(), d[:])
}

// live returns the indices of the replicas that are not crashed.
func (n *engineNet) live() []int {
	var out []int
	for i := range n.engines {
		if !n.crashed[i] {
			out = append(out, i)
		}
	}
	return out
}

// drain delivers queued messages until none are left.
func (n *engineNet) drain() {
	for len(n.queue) > 0 {
		env := n.queue[0]
		n.queue = n.queue[1:]
		if n.crashed[int(env.from)] || n.crashed[int(env.to)] || (n.drop != nil && n.drop(env)) {
			continue
		}
		n.engines[int(env.to)].HandleMessage(env.from, env.m)
	}
}

// invoke multicasts req to every live engine, as a client does, where the
// primary proposes it at once, then ticks the engines on the fake clock until
// every live engine delivered it.
func (n *engineNet) invoke(req msg.Request) {
	n.t.Helper()
	auth := n.auth(req.Client, req)
	for _, i := range n.live() {
		n.engines[i].Track(req, auth)
	}
	for _, i := range n.live() {
		n.engines[i].Propose([]msg.Request{req}, []authn.Authenticator{auth})
	}
	n.drain()
	n.await(req.ID())
}

// await ticks the engines on the fake clock until every live engine
// delivered id, and asserts after each step that no two engines delivered
// different batches at one sequence number.
func (n *engineNet) await(id msg.RequestID) {
	n.t.Helper()
	for step := 0; ; step++ {
		for _, i := range n.live() {
			for _, j := range n.live() {
				for seq := 0; seq < min(len(n.batches[i]), len(n.batches[j])); seq++ {
					if n.batches[i][seq] != n.batches[j][seq] {
						n.t.Fatalf("replicas %d and %d delivered different batches at seq %d", i, j, seq+1)
					}
				}
			}
		}
		if n.allDelivered(id) {
			return
		}
		if step == 100 {
			n.t.Fatalf("request %v not delivered by every live replica after %d ticks", id, step)
		}
		n.now = n.now.Add(50 * time.Millisecond)
		for _, i := range n.live() {
			n.engines[i].Tick()
		}
		n.drain()
	}
}

func (n *engineNet) allDelivered(id msg.RequestID) bool {
	for _, i := range n.live() {
		found := false
		for _, d := range n.delivered[i] {
			found = found || d == id
		}
		if !found {
			return false
		}
	}
	return true
}

// run invokes total requests of one client in turn and asserts that every
// live engine delivered exactly those requests, in invocation order.
func (n *engineNet) run(total int) {
	n.t.Helper()
	var want []msg.RequestID
	for ts := uint64(1); ts <= uint64(total); ts++ {
		req := msg.Request{Client: ids.Client(0), Timestamp: ts, Command: []byte("c")}
		n.invoke(req)
		want = append(want, req.ID())
	}
	for _, i := range n.live() {
		got := n.delivered[i]
		if len(got) != len(want) {
			n.t.Fatalf("replica %d delivered %d requests, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				n.t.Fatalf("replica %d delivered %v at position %d, want %v", i, got[j], j, want[j])
			}
		}
	}
}

func TestPBFTOrdersRequests(t *testing.T) {
	n := newEngineNet(t, 0)
	n.run(20)
}

func TestPBFTToleratesCrashedBackup(t *testing.T) {
	n := newEngineNet(t, 300*time.Millisecond, 2)
	n.run(10)
}

// TestPBFTViewChangeOnCrashedPrimary crashes the view-0 primary (replica 0):
// the backups must time out, change views and keep ordering.
func TestPBFTViewChangeOnCrashedPrimary(t *testing.T) {
	n := newEngineNet(t, 200*time.Millisecond, 0)
	n.run(5)
	for _, i := range n.live() {
		if n.engines[i].ViewChanges() == 0 {
			t.Errorf("replica %d completed no view change despite a crashed primary", i)
		}
	}
}

// TestEngineDeliversInOrder: four engines wired directly to each other (no
// network) must deliver identical sequences.
func TestEngineDeliversInOrder(t *testing.T) {
	n := newEngineNet(t, 0)
	n.run(6)
}

// TestNewViewRejectsUnauthenticatedRequest: after three ordered requests,
// replica 1, the primary of view 1, sends the others a NEW-VIEW built from
// their own signed view changes that proposes a request c0 never sent. No
// replica may deliver it, whoever made the authenticator.
func TestNewViewRejectsUnauthenticatedRequest(t *testing.T) {
	forged := msg.Request{Client: ids.Client(0), Timestamp: 99, Command: []byte("forged")}
	for name, auth := range map[string]func(n *engineNet) authn.Authenticator{
		"zero authenticator": func(*engineNet) authn.Authenticator { return authn.Authenticator{} },
		"c1's authenticator": func(n *engineNet) authn.Authenticator { return n.auth(ids.Client(1), forged) },
	} {
		t.Run(name, func(t *testing.T) {
			n := newEngineNet(t, 0)
			n.run(3)
			n.crashed[1] = true
			nv := &NewView{View: 1}
			for _, i := range []int{0, 2, 3} {
				vc := n.engines[i].buildViewChange(1)
				if vc.LastDelivered != 3 || len(vc.Prepared) != 0 {
					t.Fatalf("replica %d's view change: last delivered %d, %d prepared; want 3, 0", i, vc.LastDelivered, len(vc.Prepared))
				}
				nv.ViewChanges = append(nv.ViewChanges, *vc)
			}
			batch := []msg.Request{forged}
			nv.Proposals = []PrePrepare{{View: 1, Seq: 4, Batch: batch, Auths: []authn.Authenticator{auth(n)}, Digest: msg.Batch{Requests: batch}.Digest()}}
			for _, i := range []int{0, 2, 3} {
				n.engines[i].HandleMessage(ids.Replica(1), nv)
			}
			n.drain()
			for _, i := range []int{0, 2, 3} {
				if len(n.delivered[i]) != 3 {
					t.Fatalf("replica %d delivered %v, want only the 3 ordered requests", i, n.delivered[i])
				}
			}
		})
	}
}

// TestNewViewKeepsBatchOneReplicaDelivered: c0's authenticator verifies at
// every replica but replica 1, the primary of view 1. Replica 0 orders the
// request at seq 1, and only replica 2 receives view 0's commits, so only it
// delivers. The view change must re-propose the batch replicas 0 and 3
// prepared, whose client replica 1 cannot authenticate, rather than fill
// seq 1 with an empty batch: that would fork replica 2 from the others.
func TestNewViewKeepsBatchOneReplicaDelivered(t *testing.T) {
	n := newEngineNet(t, 200*time.Millisecond)
	n.drop = func(env envelope) bool {
		c, ok := env.m.(*Commit)
		return ok && c.View == 0 && env.to != ids.Replica(2)
	}
	req := msg.Request{Client: ids.Client(0), Timestamp: 1, Command: []byte("c")}
	auth := n.auth(req.Client, req)
	for i := range auth.Entries {
		if auth.Entries[i].Receiver == ids.Replica(1) {
			auth.Entries[i].MAC[0] ^= 1
		}
	}
	for _, i := range []int{0, 2, 3} {
		n.engines[i].Track(req, auth)
	}
	n.engines[0].Propose([]msg.Request{req}, []authn.Authenticator{auth})
	n.drain()
	if len(n.delivered[2]) != 1 || len(n.delivered[0])+len(n.delivered[1])+len(n.delivered[3]) != 0 {
		t.Fatalf("view 0 delivered %v, want replica 2 alone to deliver c0/1", n.delivered)
	}
	n.await(req.ID())
}

// TestNewViewRejectsReplacedBatch: replica 2 alone delivers c0/1 at seq 1,
// which replicas 0 and 3 prepared. Replica 1, the primary of view 1, sends
// them a NEW-VIEW with the genuine view changes of replicas 0, 1 and 3 that
// proposes the authentic c1/1 at seq 1 instead. Neither may accept it.
func TestNewViewRejectsReplacedBatch(t *testing.T) {
	n := newEngineNet(t, 0)
	n.drop = func(env envelope) bool {
		_, commit := env.m.(*Commit)
		return commit && env.to != ids.Replica(2)
	}
	req := msg.Request{Client: ids.Client(0), Timestamp: 1, Command: []byte("c")}
	auth := n.auth(req.Client, req)
	for _, i := range n.live() {
		n.engines[i].Track(req, auth)
	}
	n.engines[0].Propose([]msg.Request{req}, []authn.Authenticator{auth})
	n.drain()
	nv := &NewView{View: 1}
	for _, i := range []int{0, 1, 3} {
		nv.ViewChanges = append(nv.ViewChanges, *n.engines[i].buildViewChange(1))
	}
	other := []msg.Request{{Client: ids.Client(1), Timestamp: 1, Command: []byte("c")}}
	nv.Proposals = []PrePrepare{{View: 1, Seq: 1, Batch: other, Auths: []authn.Authenticator{n.auth(ids.Client(1), other[0])}, Digest: msg.Batch{Requests: other}.Digest()}}
	for _, i := range []int{0, 3} {
		n.engines[i].HandleMessage(ids.Replica(1), nv)
	}
	n.drain()
	for _, i := range []int{0, 3} {
		if n.engines[i].view != 0 || len(n.batches[i]) != 0 {
			t.Fatalf("replica %d entered view %d and delivered %v on a NEW-VIEW that replaced a prepared batch", i, n.engines[i].view, n.delivered[i])
		}
	}
}

// TestEngineForgetsDeliveredBatches: after 1,000 requests ordered one at a
// time, no engine holds an entry or a tracked request at or below the last
// sequence number it delivered.
func TestEngineForgetsDeliveredBatches(t *testing.T) {
	n := newEngineNet(t, 0)
	n.run(1000)
	for i, e := range n.engines {
		if e.lastDelivered != 1000 {
			t.Fatalf("replica %d delivered up to %d, want 1000", i, e.lastDelivered)
		}
		for seq := range e.entries {
			if seq <= e.lastDelivered {
				t.Errorf("replica %d holds delivered seq %d (%d entries)", i, seq, len(e.entries))
				break
			}
		}
		if len(e.knownReqs) != 0 {
			t.Errorf("replica %d still tracks %d delivered requests", i, len(e.knownReqs))
		}
	}
}

// TestEngineIgnoresClientVotes: a client shares MAC keys with every replica,
// but its prepares and commits are not votes. With two replicas crashed, two
// clients' votes would complete the quorums a proposal needs.
func TestEngineIgnoresClientVotes(t *testing.T) {
	n := newEngineNet(t, 0, 2, 3)
	req := msg.Request{Client: ids.Client(0), Timestamp: 1, Command: []byte("c")}
	auth := n.auth(req.Client, req)
	n.engines[0].Track(req, auth)
	n.engines[0].Propose([]msg.Request{req}, []authn.Authenticator{auth})
	n.drain()
	digest := msg.Batch{Requests: []msg.Request{req}}.Digest()
	for _, c := range []ids.ProcessID{ids.Client(1), ids.Client(2)} {
		for _, tag := range []byte{'p', 'c'} {
			mac := n.keys.MAC(c, ids.Replica(1), phaseBytes(tag, 0, 1, digest))
			if tag == 'p' {
				n.engines[1].HandleMessage(c, &Prepare{View: 0, Seq: 1, Digest: digest, MAC: mac})
			} else {
				n.engines[1].HandleMessage(c, &Commit{View: 0, Seq: 1, Digest: digest, MAC: mac})
			}
		}
	}
	n.drain()
	if len(n.delivered[1]) != 0 {
		t.Fatalf("replica 1 delivered %v on client votes", n.delivered[1])
	}
}
