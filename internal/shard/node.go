package shard

import (
	"fmt"
	"log"
	"sync"
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
	// NewApp builds one application partition per shard plus the merged
	// application of the execution stage; nil selects a null application.
	NewApp func() app.Application
	// NewProtocol builds the per-instance protocol factory of one shard,
	// given the shard's rotated cluster (a compose.Composition provides it:
	// Composition.ReplicaFactory).
	NewProtocol func(shard int, cluster ids.Cluster) host.ProtocolFactory
	// Batch is the per-shard batch assembler policy.
	Batch host.BatchPolicy
	// Epoch is the execution stage's merge round length (0 = DefaultEpoch).
	Epoch int
	// NullOpInterval is how often the node probes the execution stage for
	// lagging shards and asks the leaders it runs to order Mencius-style
	// null-ops (one per lagging led shard per probe). 0 selects
	// DefaultNullOpInterval; negative disables null-ops (an idle shard then
	// stalls the merge, the pre-statesync behaviour).
	NullOpInterval time.Duration
	// RecoverRetryInterval is the poll period of the recovery control plane:
	// the boundary-collection rounds of RecoverFromPeers and the
	// re-agreement monitor that re-pins a stalled sync at a newer boundary.
	// 0 selects DefaultRecoverRetryInterval.
	RecoverRetryInterval time.Duration
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
	// (shard-labelled) plus the recovery plane's re-agreements.
	Flight *obs.Flight
	// ProtocolName, when non-nil, names the protocol of an instance for the
	// compose_active_protocol gauge of every sub-host.
	ProtocolName func(core.InstanceID) string
}

// DefaultNullOpInterval is the default idle-shard probe period: fast enough
// that an idle shard delays a waiting merge round by a few milliseconds per
// epoch position, slow enough to stay negligible next to real traffic.
const DefaultNullOpInterval = 2 * time.Millisecond

// DefaultRecoverRetryInterval is the default recovery-plane poll period:
// short enough that a pruned pinned boundary re-pins within a few checkpoint
// intervals of live traffic, long enough that collection rounds stay
// negligible next to the transfers themselves.
const DefaultRecoverRetryInterval = 100 * time.Millisecond

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

	nullStop chan struct{}
	nullDone chan struct{}

	// Recovery control plane (recover.go): the control loop answering
	// MergedQuery messages, the collector of an in-flight recovery, and the
	// re-agreement monitor re-pinning stalled syncs.
	ctrlOnce sync.Once
	ctrlDone chan struct{}
	recMu    sync.Mutex
	rec      *mergedCollector
	recAsks  int
	// recPinned is the merged boundary the shard syncs are currently pinned
	// at (guarded by recMu).
	recPinned uint64
	recStop   chan struct{}
	recDone   chan struct{}
}

// Lead returns the replica leading shard s (position 0 of the shard's
// rotated chain order): replica s mod N.
func Lead(cluster ids.Cluster, s int) ids.ProcessID {
	return cluster.WithLead(s % cluster.N).Head()
}

// NewNode builds a sharded replica. Start must be called to begin
// processing.
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
			NewApp:  cfg.NewApp,
			Metrics: cfg.Metrics,
			Tracer:  cfg.Tracer,
		}),
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
			NewProtocol:        cfg.NewProtocol(s, cl),
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
	return n
}

// Start launches every sub-host's event loop, the recovery control loop
// (answering peers' merged-boundary queries), and the idle-shard null-op
// probe.
func (n *Node) Start() {
	n.startControl()
	for _, h := range n.Hosts {
		h.Start()
	}
	interval := n.cfg.NullOpInterval
	if interval == 0 {
		interval = DefaultNullOpInterval
	}
	if interval > 0 {
		n.nullStop = make(chan struct{})
		n.nullDone = make(chan struct{})
		go n.runNullOps(interval)
	}
}

// runNullOps periodically asks the leaders this replica runs to fill lagging
// shards' epochs with null operations, so an idle shard does not stall the
// cross-shard merge rounds other shards are waiting to complete.
func (n *Node) runNullOps(interval time.Duration) {
	defer close(n.nullDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-n.nullStop:
			return
		case <-ticker.C:
			for _, s := range n.Exec.LaggingShards() {
				if Lead(n.cfg.Cluster, s) == n.cfg.Replica {
					n.Hosts[s].OrderNullOp()
				}
			}
		}
	}
}

// Stop terminates the sub-hosts, the re-agreement monitor, the router (which
// ends the control loop), the null-op probe, and the execution stage.
func (n *Node) Stop() {
	for _, h := range n.Hosts {
		h.Stop()
	}
	n.recMu.Lock()
	recStop, recDone := n.recStop, n.recDone
	n.recStop, n.recDone = nil, nil
	n.recMu.Unlock()
	if recStop != nil {
		close(recStop)
		<-recDone
	}
	if n.nullStop != nil {
		close(n.nullStop)
		<-n.nullDone
	}
	n.Router.Close()
	if n.ctrlDone != nil {
		<-n.ctrlDone
	}
	n.Exec.Stop()
}

// Host returns the sub-host of shard s.
func (n *Node) Host(s int) *host.Host { return n.Hosts[s] }

// Recover catches a freshly restarted node up to the live plane: it adopts a
// peer's merged-mirror snapshot (the caller must have verified it against
// f+1 peers — merged state is a pure function of the agreed per-shard
// histories, so equal (seq, digest) across f+1 nodes pins it; RecoverFromPeers
// performs that collection over the network), then starts the node and
// state-syncs every sub-host from its peers, pinning each shard's snapshot
// at or below the restored merge boundary so the suffix feeds seamlessly
// into the restored mirror. It must be called instead of Start, before any
// traffic reaches the node.
//
// The pinned boundary is fixed at call time, while the peers' GC retention
// floor advances with their own merged mirrors; under heavy concurrent
// traffic a peer can prune the pinned snapshot before f+1 responses land.
// Recover therefore starts the re-agreement monitor: while any sub-host's
// pinned sync is still in flight, the node keeps collecting the peers'
// merged boundaries and, whenever a newer f+1-agreed one appears, restores
// the mirror there and re-pins the syncs — a pruned pin re-collects and
// re-pins instead of stalling.
func (n *Node) Recover(mergedSeq uint64, mergedDigest authn.Digest, mergedApp []byte) error {
	if err := n.Exec.RestoreMerged(mergedSeq, mergedDigest, mergedApp); err != nil {
		return err
	}
	n.recMu.Lock()
	n.recPinned = mergedSeq
	n.recMu.Unlock()
	n.Start()
	n.pinShardSyncs(mergedSeq)
	n.startReagreement()
	return nil
}

// execFeed adapts the host observer to the execution stage: every logged
// request is handed to the executor at its absolute per-shard position.
type execFeed struct {
	exec  *Executor
	shard int
}

// RequestLogged implements host.Observer. Entries adopted from an init
// history during an instance switch arrive here too and fill any per-shard
// sequencer gap left by ORDERs this replica never received (positions
// already merged are ignored by the executor's first-win rule).
func (f *execFeed) RequestLogged(inst core.InstanceID, req msg.Request, pos uint64) {
	f.exec.OnLogged(f.shard, pos, req)
}

// HistoryReset implements host.Observer: when an instance switch adopts an
// init history, buffered speculative entries the adoption rolled back are
// dropped before the adopted values are re-fed, so the merged mirror takes
// the agreed values instead of keeping first-logged stale ones.
func (f *execFeed) HistoryReset(inst core.InstanceID, baseSeq uint64) {
	f.exec.OnReset(f.shard, baseSeq)
}

var _ host.Observer = (*execFeed)(nil)
