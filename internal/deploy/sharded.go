package deploy

import (
	"context"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/shard"
	"abstractbft/internal/transport"
)

// Sharded is a running in-process deployment of the sharded multi-leader
// ordering plane: every replica runs cfg.Shards parallel composition
// replicas (one per shard, each with a rotated leader assignment) plus the
// asynchronous execution stage merging the shards' ordered spans.
type Sharded struct {
	cfg     Config
	Cluster ids.Cluster
	Keys    *authn.KeyStore
	Net     *transport.Local
	Nodes   []*shard.Node

	nextClient int
}

// NewSharded builds and starts a sharded cluster. The same Composition as
// New applies, instantiated once per shard over the shard's rotated cluster.
func NewSharded(cfg Config) (*Sharded, error) {
	if cfg.Composition == nil {
		return nil, errNoComposition
	}
	if cfg.NewApp == nil {
		cfg.NewApp = func() app.Application { return app.NewNull(0) }
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 25 * time.Millisecond
	}
	if cfg.Secret == "" {
		cfg.Secret = "abstract-bft"
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.KeyExtractor == nil {
		cfg.KeyExtractor = shard.PrefixKeyExtractor(8)
	}
	cluster := ids.NewCluster(cfg.F)
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	s := &Sharded{
		cfg:     cfg,
		Cluster: cluster,
		Keys:    authn.NewKeyStore(cfg.Secret),
		Net:     transport.NewLocal(cfg.Network),
	}
	for i := 0; i < cluster.N; i++ {
		s.Nodes = append(s.Nodes, s.buildNode(ids.Replica(i)))
	}
	for _, n := range s.Nodes {
		n.Start()
	}
	return s, nil
}

// buildNode assembles one replica node of the plane (shared by the initial
// deployment and crash-restarts).
func (s *Sharded) buildNode(r ids.ProcessID) *shard.Node {
	cfg := s.cfg
	return shard.NewNode(shard.NodeConfig{
		Shards:   cfg.Shards,
		Cluster:  s.Cluster,
		Replica:  r,
		Keys:     s.Keys,
		Endpoint: s.Net.Endpoint(r),
		NewApp:   cfg.NewApp,
		NewProtocol: func(sh int, cl ids.Cluster) host.ProtocolFactory {
			return cfg.Composition.ReplicaFactory(cl)
		},
		Batch:                cfg.Batch,
		TimestampWindow:      cfg.TimestampWindow,
		Epoch:                cfg.ShardEpoch,
		NullOpInterval:       cfg.ShardNullOpInterval,
		RecoverRetryInterval: cfg.RecoverRetryInterval,
		CheckpointInterval:   cfg.CheckpointInterval,
		DisableGC:            cfg.DisableGC,
		MaxUncheckpointed:    cfg.MaxUncheckpointed,
		InstrumentHistories:  cfg.InstrumentHistories,
		TickInterval:         cfg.TickInterval,
		Ops:                  cfg.Ops,
		Metrics:              cfg.Metrics,
		Tracer:               cfg.Tracer,
		ProtocolName:         cfg.Composition.ProtocolOf,
	})
}

// RestartNode crash-restarts replica node i: the old node is stopped and
// discarded, and a fresh node comes up under the same identity and rejoins
// through the same network recovery plane the multi-process deployment uses
// (shard.Node.RecoverFromPeers): it collects an f+1-agreed merged boundary
// from the live peers over the wire (votes keyed by merged sequence, merged
// digest, and the hash of the serialized merged application, accumulated
// across collection rounds so a plane moving under traffic still converges),
// restores the merged mirror there, and state-syncs every per-shard sub-host
// pinned at or below the boundary so the mirror's suffix feeds without a
// gap. The per-shard transfers complete asynchronously under the
// re-agreement monitor (poll Node.Syncing). It fails when no f+1 agreement
// forms within Config.RecoverTimeout (fewer than f+1 live peers).
func (s *Sharded) RestartNode(i int) (*shard.Node, error) {
	old := s.Nodes[i]
	old.Stop()
	s.Net.ResetEndpoint(ids.Replica(i))
	n := s.buildNode(ids.Replica(i))
	s.Nodes[i] = n
	timeout := s.cfg.RecoverTimeout
	if timeout <= 0 {
		timeout = 15 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := n.RecoverFromPeers(ctx); err != nil {
		return n, err
	}
	return n, nil
}

// Stop shuts down every node and the network.
func (s *Sharded) Stop() {
	for _, n := range s.Nodes {
		n.Stop()
	}
	s.Net.Close()
}

// Node returns the i-th replica node.
func (s *Sharded) Node(i int) *shard.Node { return s.Nodes[i] }

// Shards returns the shard count of the plane.
func (s *Sharded) Shards() int { return s.cfg.Shards }

// Lead returns the replica leading shard sh.
func (s *Sharded) Lead(sh int) ids.ProcessID { return shard.Lead(s.Cluster, sh) }

// clientEnv builds the client environment for the i-th client.
func (s *Sharded) clientEnv(i int) core.ClientEnv {
	id := ids.Client(i)
	return core.ClientEnv{
		Cluster:       s.Cluster,
		Keys:          s.Keys,
		ID:            id,
		Endpoint:      s.Net.Endpoint(id),
		Delta:         s.cfg.Delta,
		RetryInterval: s.cfg.Delta * 2,
		Ops:           s.cfg.Ops,
		Checker:       s.cfg.Checker,
	}
}

// NewClient creates a sharded client with the given index; pipeline may be
// nil for strict invoke-then-wait per shard.
func (s *Sharded) NewClient(i int, pipeline *core.PipelineOptions) (*shard.Client, error) {
	return shard.NewClient(shard.ClientConfig{
		Shards:             s.cfg.Shards,
		Extract:            s.cfg.KeyExtractor,
		Env:                s.clientEnv(i),
		NewInstanceFactory: s.cfg.Composition.InstanceFactory,
		Pipeline:           pipeline,
	})
}

// NextClient creates a sharded client with the next unused client index.
func (s *Sharded) NextClient(pipeline *core.PipelineOptions) (*shard.Client, error) {
	i := s.nextClient
	s.nextClient++
	return s.NewClient(i, pipeline)
}
