// Package deploy assembles in-process clusters of a declared composition
// (compose.Composition: any registered name or Spec DSL string) and provides
// clients bound to them. Examples, integration tests, the workload harness,
// and the benchmark all build their clusters through this package;
// multi-process deployments load a Topology file in cmd/replica and
// cmd/client.
package deploy

import (
	"errors"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/compose"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/obs"
	"abstractbft/internal/shard"
	"abstractbft/internal/transport"
)

// Config describes an in-process cluster.
type Config struct {
	// F is the number of tolerated Byzantine replicas (n = 3f+1).
	F int
	// NewApp builds the application replica instances execute; nil selects a
	// null application with empty replies.
	NewApp func() app.Application
	// Composition is the declarative protocol composition the cluster runs
	// (required): replica and client factories are both derived from it, so
	// they cannot diverge. Build one with compose.New / compose.MustNew (e.g.
	// compose.MustNew("aliph", compose.Options{}) is Aliph).
	Composition *compose.Composition
	// Delta is the synchrony bound used for client timers.
	Delta time.Duration
	// Batch configures the replica-side request batch assembler (ZLight's
	// primary, Chain's head). The zero value selects the defaults; set
	// MaxBatch to 1 to disable batching.
	Batch host.BatchPolicy
	// TimestampWindow is the replica-side per-client timestamp window width
	// (0 = default 64, 1 = strict increasing timestamps).
	TimestampWindow int
	// Shards is the number of parallel ordering shards for NewSharded
	// (0 or 1 = a single shard; plain New ignores it).
	Shards int
	// KeyExtractor maps requests to application keys for shard routing; nil
	// selects shard.PrefixKeyExtractor(8), matching the keyed workload
	// generators (falling back to the whole command for shorter ones).
	KeyExtractor shard.KeyExtractor
	// ShardEpoch is the execution stage's cross-shard merge round length
	// (0 = shard.DefaultEpoch).
	ShardEpoch int
	// Network configures the in-process transport (loss, delay, queueing).
	Network transport.Options
	// CheckpointInterval is CHK (0 = default 128, negative = disabled).
	CheckpointInterval int
	// DisableGC keeps whole histories and request bodies in memory for the
	// lifetime of every replica (the pre-statesync behaviour); by default
	// replicas garbage-collect below their last stable checkpoint.
	DisableGC bool
	// ShardNullOpInterval is the sharded plane's idle-shard null-op probe
	// period (0 = shard.DefaultNullOpInterval, negative = disabled).
	ShardNullOpInterval time.Duration
	// RecoverRetryInterval is the sharded recovery plane's poll period:
	// merged-boundary collection rounds and the re-agreement retry that
	// re-pins a pruned pinned sync (0 = shard.DefaultRecoverRetryInterval).
	RecoverRetryInterval time.Duration
	// RecoverTimeout bounds how long RestartNode waits for an f+1-agreed
	// merged boundary among the live peers (0 = 15s).
	RecoverTimeout time.Duration
	// MaxUncheckpointed bounds the uncheckpointed history (R-Aliph).
	MaxUncheckpointed int
	// InstrumentHistories enables the specification checker instrumentation.
	InstrumentHistories bool
	// Checker optionally records client events for the specification
	// checker.
	Checker *core.SpecChecker
	// Ops optionally counts cryptographic operations across the cluster.
	Ops *authn.OpCounter
	// Secret seeds the deterministic key derivation.
	Secret string
	// TickInterval is the replica protocol tick (view-change timers).
	TickInterval time.Duration
	// Observer is installed on every replica host (R-Aliph monitoring,
	// tests). The function receives the replica identifier and returns the
	// observer for that replica (nil for none).
	Observer func(r ids.ProcessID, h *host.Host) host.Observer
	// Metrics, when non-nil, instruments every replica of the cluster into
	// one shared registry (per-replica series aggregate; sharded planes label
	// by shard). Nil keeps the hot paths on the no-op metric path.
	Metrics *obs.Registry
	// Tracer, when non-nil, samples request lifecycles across the replicas.
	Tracer *obs.Tracer
}

// Cluster is a running in-process deployment.
type Cluster struct {
	cfg     Config
	Cluster ids.Cluster
	Keys    *authn.KeyStore
	Net     *transport.Local
	Hosts   []*host.Host

	nextClient int
}

// errNoComposition rejects a Config that names no protocol.
var errNoComposition = errors.New("deploy: no protocol configured; set Composition")

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
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
	cluster := ids.NewCluster(cfg.F)
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:     cfg,
		Cluster: cluster,
		Keys:    authn.NewKeyStore(cfg.Secret),
		Net:     transport.NewLocal(cfg.Network),
	}
	factory := cfg.Composition.ReplicaFactory(cluster)
	for i := 0; i < cluster.N; i++ {
		r := ids.Replica(i)
		h := host.New(host.Config{
			Cluster:             cluster,
			Replica:             r,
			Keys:                c.Keys,
			App:                 cfg.NewApp(),
			Endpoint:            c.Net.Endpoint(r),
			FirstInstance:       1,
			NewProtocol:         factory,
			Batch:               cfg.Batch,
			TimestampWindow:     cfg.TimestampWindow,
			CheckpointInterval:  cfg.CheckpointInterval,
			DisableGC:           cfg.DisableGC,
			MaxUncheckpointed:   cfg.MaxUncheckpointed,
			InstrumentHistories: cfg.InstrumentHistories,
			Ops:                 cfg.Ops,
			TickInterval:        cfg.TickInterval,
			Metrics:             cfg.Metrics,
			Tracer:              cfg.Tracer,
			ProtocolName:        cfg.Composition.ProtocolOf,
		})
		if cfg.Observer != nil {
			if obs := cfg.Observer(r, h); obs != nil {
				h.SetObserver(obs)
			}
		}
		c.Hosts = append(c.Hosts, h)
	}
	for _, h := range c.Hosts {
		h.Start()
	}
	return c, nil
}

// RestartReplica crash-restarts replica i: the old host is stopped and
// discarded (its history, application state, and snapshots die with it), a
// fresh host comes up under the same identity with an empty application and
// a clean endpoint, and state-syncs from its peers — the FETCH-STATE/STATE
// transfer restores the application snapshot at the cluster's stable
// checkpoint plus the history suffix beyond it, accepted only under f+1
// digest agreement. The returned host replaces Hosts[i]; catch-up completes
// asynchronously (poll Host.Syncing / Host.AppliedState).
func (c *Cluster) RestartReplica(i int) *host.Host {
	old := c.Hosts[i]
	old.Stop()
	r := ids.Replica(i)
	h := host.New(host.Config{
		Cluster:             c.Cluster,
		Replica:             r,
		Keys:                c.Keys,
		App:                 c.cfg.NewApp(),
		Endpoint:            c.Net.ResetEndpoint(r),
		FirstInstance:       1,
		NewProtocol:         c.cfg.Composition.ReplicaFactory(c.Cluster),
		Batch:               c.cfg.Batch,
		TimestampWindow:     c.cfg.TimestampWindow,
		CheckpointInterval:  c.cfg.CheckpointInterval,
		DisableGC:           c.cfg.DisableGC,
		MaxUncheckpointed:   c.cfg.MaxUncheckpointed,
		InstrumentHistories: c.cfg.InstrumentHistories,
		Ops:                 c.cfg.Ops,
		TickInterval:        c.cfg.TickInterval,
		Metrics:             c.cfg.Metrics,
		Tracer:              c.cfg.Tracer,
		ProtocolName:        c.cfg.Composition.ProtocolOf,
	})
	if c.cfg.Observer != nil {
		if obs := c.cfg.Observer(r, h); obs != nil {
			h.SetObserver(obs)
		}
	}
	c.Hosts[i] = h
	h.Start()
	h.SyncState(0)
	return h
}

// Stop shuts down every replica and the network.
func (c *Cluster) Stop() {
	for _, h := range c.Hosts {
		h.Stop()
	}
	c.Net.Close()
}

// Host returns the i-th replica host.
func (c *Cluster) Host(i int) *host.Host { return c.Hosts[i] }

// ClientEnv builds the client environment for the i-th client.
func (c *Cluster) ClientEnv(i int) core.ClientEnv {
	id := ids.Client(i)
	return core.ClientEnv{
		Cluster:       c.Cluster,
		Keys:          c.Keys,
		ID:            id,
		Endpoint:      c.Net.Endpoint(id),
		Delta:         c.cfg.Delta,
		RetryInterval: c.cfg.Delta * 2,
		Ops:           c.cfg.Ops,
		Checker:       c.cfg.Checker,
	}
}

// NewClient creates a composed-protocol client with the given index.
func (c *Cluster) NewClient(i int) (*core.Composer, error) {
	return c.cfg.Composition.NewClient(c.ClientEnv(i))
}

// NextClient creates a client with the next unused client index.
func (c *Cluster) NextClient() (*core.Composer, error) {
	i := c.nextClient
	c.nextClient++
	return c.NewClient(i)
}

// NewPipelinedClient creates a pipelining composed-protocol client with the
// given index: up to opts.Depth invocations stay in flight concurrently, and
// instances supporting batched invocation (Quorum) coalesce queued
// invocations into one batch message.
func (c *Cluster) NewPipelinedClient(i int, opts core.PipelineOptions) (*core.PipelinedComposer, error) {
	return core.NewPipelinedComposer(c.ClientEnv(i), c.cfg.Composition.InstanceFactory, 1, opts)
}
