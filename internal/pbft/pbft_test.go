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
// are dropped, and every engine reads one fake clock that advance moves.
type engineNet struct {
	t         *testing.T
	engines   []*Engine
	delivered [][]msg.RequestID
	crashed   map[int]bool
	queue     []envelope
	now       time.Time
}

type envelope struct {
	from, to ids.ProcessID
	m        any
}

func newEngineNet(t *testing.T, batchSize int, vcTimeout time.Duration, crashed ...int) *engineNet {
	t.Helper()
	cluster := ids.NewCluster(1)
	keys := authn.NewKeyStore("engine-test")
	n := &engineNet{
		t:         t,
		engines:   make([]*Engine, cluster.N),
		delivered: make([][]msg.RequestID, cluster.N),
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
			Keys:    keys,
			Send: func(to ids.ProcessID, m any) {
				n.queue = append(n.queue, envelope{from: ids.Replica(i), to: to, m: m})
			},
			Deliver: func(batch []msg.Request) {
				for _, r := range batch {
					n.delivered[i] = append(n.delivered[i], r.ID())
				}
			},
			BatchSize:         batchSize,
			ViewChangeTimeout: vcTimeout,
			Now:               func() time.Time { return n.now },
		})
	}
	return n
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
		if n.crashed[int(env.from)] || n.crashed[int(env.to)] {
			continue
		}
		n.engines[int(env.to)].HandleMessage(env.from, env.m)
	}
}

// invoke multicasts req to every live engine, as a client does, then ticks
// the engines on the fake clock until every live engine delivered it.
func (n *engineNet) invoke(req msg.Request) {
	n.t.Helper()
	for _, i := range n.live() {
		n.engines[i].SubmitRequest(req)
	}
	n.drain()
	for step := 0; !n.allDelivered(req.ID()); step++ {
		if step == 100 {
			n.t.Fatalf("request %v not delivered by every live replica after %d ticks", req.ID(), step)
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
	n := newEngineNet(t, 4, 0)
	n.run(20)
}

func TestPBFTToleratesCrashedBackup(t *testing.T) {
	n := newEngineNet(t, 4, 300*time.Millisecond, 2)
	n.run(10)
}

// TestPBFTViewChangeOnCrashedPrimary crashes the view-0 primary (replica 0):
// the backups must time out, change views and keep ordering.
func TestPBFTViewChangeOnCrashedPrimary(t *testing.T) {
	n := newEngineNet(t, 4, 200*time.Millisecond, 0)
	n.run(5)
	for _, i := range n.live() {
		if n.engines[i].ViewChanges() == 0 {
			t.Errorf("replica %d completed no view change despite a crashed primary", i)
		}
	}
}

func TestBatchDigestDeterministic(t *testing.T) {
	batch := []msg.Request{
		{Client: ids.Client(0), Timestamp: 1, Command: []byte("a")},
		{Client: ids.Client(1), Timestamp: 1, Command: []byte("b")},
	}
	if BatchDigest(batch) != BatchDigest(batch) {
		t.Fatalf("batch digest not deterministic")
	}
	other := []msg.Request{batch[1], batch[0]}
	if BatchDigest(batch) == BatchDigest(other) {
		t.Fatalf("batch digest ignores order")
	}
}

// TestEngineDeliversInOrder: four engines wired directly to each other (no
// network) must deliver identical sequences.
func TestEngineDeliversInOrder(t *testing.T) {
	n := newEngineNet(t, 2, 0)
	n.run(6)
}
