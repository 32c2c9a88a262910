package deploy

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
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
	"abstractbft/internal/transport/wirecodec"
)

// Topology describes a multi-process sharded deployment: one JSON file
// shared by every cmd/replica and cmd/client process of a cluster, so the
// replica plane and its clients cannot diverge on addresses, shard count,
// composition, or key routing. It is the process-boundary analogue of the
// in-process Config.
type Topology struct {
	// F is the number of tolerated Byzantine replicas (n = 3f+1).
	F int `json:"f"`
	// Replicas are the replica listen addresses, in replica order (exactly
	// 3f+1 of them).
	Replicas []string `json:"replicas"`
	// Shards is the number of parallel ordering shards (0 or 1 = one shard).
	Shards int `json:"shards,omitempty"`
	// Composition is the switching schedule in Spec DSL form or a registered
	// name (e.g. "azyzzyva", "quorum,chain,backup", "pbft"); empty selects
	// "azyzzyva".
	Composition string `json:"composition,omitempty"`
	// KeyExtractor selects the shard-routing key extractor: "prefix8" (the
	// keyed workload's 8-byte big-endian prefix), "kv" (the key of encoded
	// KV commands), or "full" (the whole command). Empty follows the app:
	// "kv" for the KV store (whose encoded commands all share the same first
	// bytes, so prefix8 would collapse them onto one shard), "prefix8"
	// otherwise.
	KeyExtractor string `json:"key_extractor,omitempty"`
	// App is the replicated application: "kv" (default), "counter", or
	// "null".
	App string `json:"app,omitempty"`
	// ReplySize is the null application's reply payload size.
	ReplySize int `json:"reply_size,omitempty"`
	// Secret seeds the deterministic pairwise key derivation of the cluster.
	Secret string `json:"secret,omitempty"`
	// ShardEpoch is the execution stage's merge round length (0 =
	// shard.DefaultEpoch).
	ShardEpoch int `json:"shard_epoch,omitempty"`
	// CheckpointInterval is CHK (0 = default 128, negative = disabled).
	CheckpointInterval int `json:"checkpoint_interval,omitempty"`
	// MaxBatch is the per-shard batch assembler size (0 = default 16, 1 =
	// per-request path).
	MaxBatch int `json:"max_batch,omitempty"`
	// TimestampWindow is the replica-side per-client timestamp window width
	// (0 = default 64).
	TimestampWindow int `json:"timestamp_window,omitempty"`
	// DeltaMs is the clients' synchrony bound in milliseconds (0 = 500ms —
	// generous by default so a crash-restart window stalls clients instead
	// of panicking them into an instance switch).
	DeltaMs int `json:"delta_ms,omitempty"`
	// Pipeline is the clients' default per-shard pipeline depth (0 or 1 =
	// strict invoke-then-wait).
	Pipeline int `json:"pipeline,omitempty"`
	// Deprecated: Codec is ignored. Every endpoint frames its TCP streams
	// with the binary codec (wirecodec.Binary); the field is kept so
	// topology files that still name a codec load unchanged.
	Codec string `json:"codec,omitempty"`
	// MetricsAddrs are the replicas' observability listen addresses, in
	// replica order (either empty — metrics off — or exactly one per
	// replica). Each replica serves Prometheus text at /metrics and a JSON
	// snapshot at /metrics.json on its address.
	MetricsAddrs []string `json:"metrics_addrs,omitempty"`
	// TraceSampleRate head-samples one request lifecycle out of every N at the
	// client when metrics are enabled: the sampled request is stamped with a
	// trace context that rides the wire, so every process of the cluster
	// records spans for the same one-in-N requests (0 = default 128, negative
	// = tracing off).
	TraceSampleRate int `json:"trace_sample_rate,omitempty"`
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/ on every
	// process's observability address. Off by default: profiling endpoints
	// can stall a process and belong behind an explicit operator opt-in.
	Pprof bool `json:"pprof,omitempty"`
}

// LoadTopology reads and validates a topology file.
func LoadTopology(path string) (Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, fmt.Errorf("deploy: topology: %w", err)
	}
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return Topology{}, fmt.Errorf("deploy: topology %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return Topology{}, fmt.Errorf("deploy: topology %s: %w", path, err)
	}
	return t, nil
}

// WriteFile writes the topology as indented JSON (harnesses share one file
// between the replica and client processes they spawn).
func (t Topology) WriteFile(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Validate checks the topology for structural errors: the replica count must
// match 3f+1 and every enumerated field must name a known variant.
func (t Topology) Validate() error {
	cluster := ids.NewCluster(t.F)
	if err := cluster.Validate(); err != nil {
		return err
	}
	if len(t.Replicas) != cluster.N {
		return fmt.Errorf("need %d replica addresses for f=%d, got %d", cluster.N, t.F, len(t.Replicas))
	}
	if _, err := t.Compile(); err != nil {
		return err
	}
	if _, err := t.Extractor(); err != nil {
		return err
	}
	switch t.App {
	case "", "kv", "counter", "null":
	default:
		return fmt.Errorf("unknown app %q (kv, counter, or null)", t.App)
	}
	if len(t.MetricsAddrs) != 0 && len(t.MetricsAddrs) != cluster.N {
		return fmt.Errorf("need 0 or %d metrics addresses for f=%d, got %d", cluster.N, t.F, len(t.MetricsAddrs))
	}
	return nil
}

// MetricsAddr returns the observability listen address of replica self
// (empty when the topology leaves metrics off).
func (t Topology) MetricsAddr(self ids.ProcessID) string {
	i := int(self)
	if i < 0 || i >= len(t.MetricsAddrs) {
		return ""
	}
	return t.MetricsAddrs[i]
}

// TraceRate resolves the effective lifecycle-tracer sample rate (0 when
// tracing is off).
func (t Topology) TraceRate() int {
	if t.TraceSampleRate < 0 {
		return 0
	}
	if t.TraceSampleRate == 0 {
		return 128
	}
	return t.TraceSampleRate
}

// NewReplicaEndpoint builds the authenticated TCP endpoint of replica self.
// cmd/replica and the process harnesses share this, so their endpoints
// cannot drift apart.
func (t Topology) NewReplicaEndpoint(self ids.ProcessID) (*transport.TCP, error) {
	return transport.NewTCPCodec(self, t.AddrMap(), t.Keys(), wirecodec.Binary())
}

// Cluster returns the replica group the topology describes.
func (t Topology) Cluster() ids.Cluster { return ids.NewCluster(t.F) }

// AddrMap maps every replica to its listen address.
func (t Topology) AddrMap() map[ids.ProcessID]string {
	m := make(map[ids.ProcessID]string, len(t.Replicas))
	for i, a := range t.Replicas {
		m[ids.Replica(i)] = a
	}
	return m
}

// Keys derives the cluster's key store from the shared secret.
func (t Topology) Keys() *authn.KeyStore {
	secret := t.Secret
	if secret == "" {
		secret = "abstract-bft"
	}
	return authn.NewKeyStore(secret)
}

// Compile compiles the topology's composition DSL.
func (t Topology) Compile() (*compose.Composition, error) {
	dsl := t.Composition
	if dsl == "" {
		dsl = "azyzzyva"
	}
	spec, err := compose.Parse(dsl)
	if err != nil {
		return nil, err
	}
	return compose.New(spec, compose.Options{})
}

// ExtractorName resolves the effective key-extractor name (the default
// follows the application — see the KeyExtractor field). Workload generators
// key their commands off this, so routing and generation cannot disagree.
func (t Topology) ExtractorName() string {
	if t.KeyExtractor != "" {
		return t.KeyExtractor
	}
	if t.App == "" || t.App == "kv" {
		return "kv"
	}
	return "prefix8"
}

// Extractor returns the shard-routing key extractor the topology names.
func (t Topology) Extractor() (shard.KeyExtractor, error) {
	switch t.ExtractorName() {
	case "prefix8":
		return shard.PrefixKeyExtractor(8), nil
	case "kv":
		return shard.KVKeyExtractor, nil
	case "full":
		return shard.FullCommandKey, nil
	default:
		return nil, fmt.Errorf("unknown key extractor %q (prefix8, kv, or full)", t.KeyExtractor)
	}
}

// NewApp returns the application constructor of the topology.
func (t Topology) NewApp() func() app.Application {
	switch t.App {
	case "counter":
		return func() app.Application { return app.NewCounter() }
	case "null":
		size := t.ReplySize
		return func() app.Application { return app.NewNull(size) }
	default:
		return func() app.Application { return app.NewKVStore() }
	}
}

// Delta returns the clients' synchrony bound.
func (t Topology) Delta() time.Duration {
	if t.DeltaMs > 0 {
		return time.Duration(t.DeltaMs) * time.Millisecond
	}
	return 500 * time.Millisecond
}

// ShardCount returns the effective shard count (at least 1).
func (t Topology) ShardCount() int {
	if t.Shards < 1 {
		return 1
	}
	return t.Shards
}

// NewNode builds the sharded replica node of process self over the given
// endpoint — the exact configuration cmd/replica runs, assembled here so the
// process harnesses and the binary cannot diverge. A non-nil registry
// instruments every layer of the node (plus a lifecycle tracer at the
// topology's sample rate); nil leaves the plane uninstrumented. Start (or
// RecoverFromPeers, for a crash-restarted process) must be called on the
// result.
func (t Topology) NewNode(self ids.ProcessID, ep transport.Endpoint, logger *log.Logger, reg *obs.Registry) (*shard.Node, error) {
	return t.NewNodeObs(self, ep, logger, reg, nil, nil)
}

// NewNodeObs builds the same node as NewNode with the full observability
// plane attached: spans, when non-nil, collects the spans of client-sampled
// traces (served at /debug/traces.json), and flight, when non-nil, records
// the node's protocol events (served at /debug/flight.json).
func (t Topology) NewNodeObs(self ids.ProcessID, ep transport.Endpoint, logger *log.Logger, reg *obs.Registry, spans *obs.SpanRing, flight *obs.Flight) (*shard.Node, error) {
	comp, err := t.Compile()
	if err != nil {
		return nil, err
	}
	keys := t.Keys()
	keys.SetMetrics(reg)
	return shard.NewNode(shard.NodeConfig{
		Shards:   t.ShardCount(),
		Cluster:  t.Cluster(),
		Replica:  self,
		Keys:     keys,
		Endpoint: ep,
		NewApp:   t.NewApp(),
		NewProtocol: func(sh int, cl ids.Cluster) host.ProtocolFactory {
			return comp.ReplicaFactory(cl)
		},
		Batch:              host.BatchPolicy{MaxBatch: t.MaxBatch},
		TimestampWindow:    t.TimestampWindow,
		Epoch:              t.ShardEpoch,
		CheckpointInterval: t.CheckpointInterval,
		Logger:             logger,
		Metrics:            reg,
		Tracer:             obs.NewTracerRing(reg, t.TraceRate(), spans),
		Flight:             flight,
		ProtocolName:       comp.ProtocolOf,
	}), nil
}

// DialClient builds a primed TCP client endpoint plus the keyed sharded
// client on top of it: the endpoint listens on listenAddr, completes the
// connection-proof exchange with every replica before the first request (so
// no reply is dropped at an un-proven reply route), and is closed on any
// error. cmd/client and the process harnesses share this, so the client-side
// construction cannot drift between them.
func (t Topology) DialClient(ctx context.Context, id ids.ProcessID, listenAddr string, depth int) (*transport.TCP, *shard.Client, error) {
	addrs := t.AddrMap()
	addrs[id] = listenAddr
	ep, err := transport.NewTCPCodec(id, addrs, t.Keys(), wirecodec.Binary())
	if err != nil {
		return nil, nil, err
	}
	if err := ep.Prime(ctx, t.Cluster().Replicas()); err != nil {
		ep.Close()
		return nil, nil, err
	}
	client, err := t.NewShardClient(id, ep, depth)
	if err != nil {
		ep.Close()
		return nil, nil, err
	}
	return ep, client, nil
}

// NewShardClient builds the keyed sharded client of the given identity over
// the endpoint: per-shard composers derived from the topology's composition
// (pipelined when depth > 1), routed by the topology's key extractor.
func (t Topology) NewShardClient(id ids.ProcessID, ep transport.Endpoint, depth int) (*shard.Client, error) {
	comp, err := t.Compile()
	if err != nil {
		return nil, err
	}
	extract, err := t.Extractor()
	if err != nil {
		return nil, err
	}
	env := core.ClientEnv{
		Cluster:       t.Cluster(),
		Keys:          t.Keys(),
		ID:            id,
		Endpoint:      ep,
		Delta:         t.Delta(),
		RetryInterval: t.Delta() * 2,
	}
	var pipeline *core.PipelineOptions
	if depth <= 0 {
		depth = t.Pipeline
	}
	if depth > 1 {
		pipeline = &core.PipelineOptions{Depth: depth}
	}
	return shard.NewClient(shard.ClientConfig{
		Shards:             t.ShardCount(),
		Extract:            extract,
		Env:                env,
		NewInstanceFactory: comp.InstanceFactory,
		Pipeline:           pipeline,
	})
}
