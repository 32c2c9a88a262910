package shard

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
	"abstractbft/internal/transport"
)

// NodeConfig configures one physical replica of the sharded ordering plane.
type NodeConfig struct {
	// Shards is the number of parallel shards (S).
	Shards int
	// Cluster describes the replica group (unrotated; every shard rotates
	// its own lead from it).
	Cluster ids.Cluster
	// Replica is this replica's identifier.
	Replica ids.ProcessID
	// Keys is the cryptographic key store.
	Keys *authn.KeyStore
	// Endpoint attaches the replica to the network; the node's router owns
	// its inbox.
	Endpoint transport.Endpoint
	// NewApp builds one application partition per shard; nil selects a null
	// application.
	NewApp func() app.Application
	// NewProtocol is every shard's per-instance protocol factory (a
	// compose.Composition provides it: Composition.ReplicaFactory); each
	// protocol replica reads its shard's rotated cluster from its host.
	NewProtocol host.ProtocolFactory
	// Batch is the per-shard batch assembler policy.
	Batch host.BatchPolicy
	// Epoch is the execution stage's merge round length (0 = DefaultEpoch).
	Epoch int
	// CheckpointInterval, InstrumentHistories, TickInterval and Logger are
	// forwarded to every sub-host.
	CheckpointInterval  int
	InstrumentHistories bool
	TickInterval        time.Duration
	Logger              *log.Logger
	// Metrics, when non-nil, instruments the node: every sub-host registers
	// its series labeled by shard, and the execution stage adds merge
	// progress, lag, and backlog series.
	Metrics *obs.Registry
	// Tracer, when non-nil, records lifecycle stages of client-sampled
	// requests across the sub-hosts and the execution stage.
	Tracer *obs.Tracer
	// Flight, when non-nil, receives the node's protocol flight-recorder
	// events: every sub-host's switches/aborts/checkpoints/statesync phases
	// (shard-labelled) plus the recovery plane's re-agreements and its
	// completion.
	Flight *obs.Flight
	// ProtocolName, when non-nil, names the protocol of an instance for the
	// compose_active_protocol gauge of every sub-host.
	ProtocolName func(core.InstanceID) string
}

// nullOpInterval is the node loop's tick and its idle-shard null-op probe
// period: each tick asks the leaders this replica runs to order Mencius-style
// null-ops for lagging shards (one per lagging led shard), so an idle shard
// delays a waiting merge round by a few milliseconds per epoch position and
// stays negligible next to real traffic.
const nullOpInterval = 2 * time.Millisecond

// Node is one physical replica of the sharded plane: S sub-hosts (one
// complete Abstract composition replica per shard, each with a different
// leader assignment) over one network endpoint, plus the asynchronous
// execution stage merging the shards' ordered spans.
type Node struct {
	cfg    NodeConfig
	Router *Router
	// Hosts holds the per-shard replica hosts (index = shard).
	Hosts []*host.Host
	// Exec is the node's asynchronous execution stage.
	Exec *Executor

	// joins holds the Start, Recover and RecoverFromPeers requests handed to
	// the node loop (run) and not yet taken; stopping ends the loop, and done
	// closes when it has returned.
	mu       sync.Mutex
	joins    []*join
	stopping atomic.Bool
	done     chan struct{}
}

// Lead returns the replica leading shard s (position 0 of the shard's
// rotated chain order): replica s mod N.
func Lead(cluster ids.Cluster, s int) ids.ProcessID {
	return cluster.WithLead(s % cluster.N).Head()
}

// NewNode builds a sharded replica and starts its node loop, which answers
// peers' merged-boundary queries from then on. Start (or Recover, or
// RecoverFromPeers) must be called to begin processing.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.NewApp == nil {
		cfg.NewApp = func() app.Application { return app.NewNull(0) }
	}
	n := &Node{
		cfg:    cfg,
		Router: NewRouter(cfg.Endpoint, cfg.Shards),
		Exec: NewExecutor(ExecutorConfig{
			Shards:  cfg.Shards,
			Epoch:   cfg.Epoch,
			Metrics: cfg.Metrics,
			Tracer:  cfg.Tracer,
		}),
		done: make(chan struct{}),
	}
	for s := 0; s < cfg.Shards; s++ {
		s := s
		cl := cfg.Cluster.WithLead(s % cfg.Cluster.N)
		// Each sub-host logs under a shard-tagged prefix so multi-shard logs
		// stay attributable to the shard that emitted them.
		logger := cfg.Logger
		if logger != nil && cfg.Shards > 1 {
			logger = log.New(logger.Writer(), logger.Prefix()+fmt.Sprintf("[s%d] ", s), logger.Flags())
		}
		h := host.New(host.Config{
			Cluster:            cl,
			Replica:            cfg.Replica,
			Keys:               cfg.Keys,
			App:                cfg.NewApp(),
			Endpoint:           n.Router.Endpoint(s),
			NewProtocol:        cfg.NewProtocol,
			Batch:              cfg.Batch,
			CheckpointInterval: cfg.CheckpointInterval,
			// GC must not outrun the merged mirror: a recovering peer
			// restores its mirror at this node's merge boundary and needs a
			// snapshot (and bodies) reaching back to it.
			RetainFloor:         func() uint64 { return n.Exec.MergedFloor(s) },
			InstrumentHistories: cfg.InstrumentHistories,
			TickInterval:        cfg.TickInterval,
			Logger:              logger,
			Metrics:             cfg.Metrics,
			MetricsLabels:       shardLabel(s),
			Tracer:              cfg.Tracer,
			Shard:               s,
			Flight:              cfg.Flight,
			ProtocolName:        cfg.ProtocolName,
		})
		h.SetObserver(&execFeed{exec: n.Exec, shard: s})
		n.Hosts = append(n.Hosts, h)
	}
	go n.run()
	return n
}

// Start starts every sub-host's event loop; from then on the node loop also
// runs the idle-shard null-op probe.
func (n *Node) Start() { n.hand(&join{}) }

// Stop terminates the node loop, the sub-hosts, the router and the execution
// stage.
func (n *Node) Stop() {
	n.stopping.Store(true)
	n.Router.Control().Wake()
	<-n.done
	for _, h := range n.Hosts {
		h.Stop()
	}
	n.Router.Close()
	n.Exec.Stop()
}

// Host returns the sub-host of shard s.
func (n *Node) Host(s int) *host.Host { return n.Hosts[s] }

// run is the node loop, the node's one control goroutine. It owns the
// control endpoint and the recovery state (nodeLoop, recover.go): it answers
// peers' MergedQuery messages, counts MergedState votes, starts the sub-hosts
// once, and on every tick probes for lagging shards and, at the recovery
// poll period, re-asks the peers while a recovery is in flight. It blocks on
// the control inbox alone: Stop, hand, the tick and a waiting join's context
// wake it there, and it re-checks each of them after every envelope.
func (n *Node) run() {
	defer close(n.done)
	l := &nodeLoop{n: n, ctrl: n.Router.Control(), peers: n.cfg.Cluster.Others(n.cfg.Replica)}
	tick := transport.NewPulse(l.ctrl, nullOpInterval)
	defer tick.Stop()
	defer l.unwatch()
	ticks := 0
	for env := range l.ctrl.Inbox() {
		if n.stopping.Load() {
			return
		}
		if env.Payload != nil {
			l.control(env)
		}
		for _, j := range n.takeJoins() {
			l.join(j)
		}
		if l.waiter != nil && l.waiter.ctx.Err() != nil {
			l.col = nil
			l.answer(fmt.Errorf("shard: no f+1-agreed merged boundary among live peers: %w", l.waiter.ctx.Err()))
		}
		if !tick.Due() {
			continue
		}
		ticks++
		if l.started {
			for _, s := range n.Exec.LaggingShards() {
				if Lead(n.cfg.Cluster, s) == n.cfg.Replica {
					n.Hosts[s].OrderNullOp()
				}
			}
		}
		if l.col != nil && ticks%pollTicks == 0 {
			l.poll()
		}
	}
}

// takeJoins returns the joins handed to the node loop since the last call.
func (n *Node) takeJoins() []*join {
	n.mu.Lock()
	defer n.mu.Unlock()
	js := n.joins
	n.joins = nil
	return js
}

// execFeed adapts the host observer to the execution stage: every logged
// request is handed to the executor at its absolute per-shard position.
type execFeed struct {
	exec  *Executor
	shard int
}

// RequestLogged implements host.Observer. Entries adopted from an init
// history during an instance switch arrive here too and fill any per-shard
// sequencer gap left by ORDERs this replica never received (positions the
// sequencer already holds are ignored).
func (f *execFeed) RequestLogged(inst core.InstanceID, req msg.Request, pos uint64) {
	f.exec.OnLogged(f.shard, pos, req)
}

// HistoryReset implements host.Observer: when an instance switch adopts an
// init history, the speculative entries the adoption rolled back are dropped
// (un-merged if need be) before the adopted values are re-fed, so the merged
// mirror takes the agreed values instead of keeping first-logged stale ones.
func (f *execFeed) HistoryReset(inst core.InstanceID, baseSeq uint64) {
	f.exec.OnReset(f.shard, baseSeq)
}

// CheckpointStable implements host.Observer: it raises the floor below which
// the merged mirror keeps no rounds for a rewind.
func (f *execFeed) CheckpointStable(inst core.InstanceID, seq uint64) {
	f.exec.OnStable(f.shard, seq)
}

var _ host.Observer = (*execFeed)(nil)
