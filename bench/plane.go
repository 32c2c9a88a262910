package bench

import (
	"context"
	"fmt"
	"io"
	"log"
	"sync/atomic"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/compose"
	"abstractbft/internal/deploy"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
	"abstractbft/internal/proccluster"
	"abstractbft/internal/shard"
	"abstractbft/internal/transport"
	"abstractbft/internal/transport/wirecodec"
)

const (
	// replicas is the size of every workload's cluster (f = 1).
	replicas = 4
	// defaultDelta is every workload's client synchrony bound. It is far above
	// any latency the workloads see, so a scheduling stall on a shared box
	// delays a request instead of panicking the client into an instance
	// switch (which the output check treats as a failed run).
	defaultDelta = 3 * time.Second
	// traceEvery is the traced run's head-sampling rate (one request in 16).
	traceEvery = 16
	// Span ring capacities of the traced run: a 10 s zlight-sat window
	// records ~20k spans/s into the one ring deploy.New shares between the
	// four replicas; the TCP plane has one ring per node.
	localRingSpans = 1 << 18
	nodeRingSpans  = 1 << 16
)

// invoker is the closed-loop client handle the load generator drives.
type invoker interface {
	Invoke(ctx context.Context, req msg.Request) ([]byte, error)
}

// replicaState is one comparable piece of a replica's state after quiesce.
type replicaState struct {
	Label  string
	Seq    uint64
	Digest authn.Digest
}

// planeObs is what the traced run reads from outside the program.
type planeObs struct {
	// replicaRegs are the replica-side registries (one shared by the four
	// hosts on Local, one per node on TCP); endpointRegs hold the TCP
	// transport series of every endpoint, replica and client (nil on Local).
	replicaRegs  []*obs.Registry
	endpointRegs []*obs.Registry
	rings        []*obs.SpanRing
	// sampler makes the head-sampling decision the benchmark stamps onto
	// requests.
	sampler *obs.Tracer
	// localBytes sums the binary wire size of every message sent on a Local
	// network.
	localBytes atomic.Uint64
}

// plane is one running cluster with its clients.
type plane struct {
	w       Workload
	clients []invoker
	ids     []ids.ProcessID
	// local is the in-process network of a Local plane (nil on TCP).
	local *transport.Local
	obs   *planeObs
	// states reports, per replica, the state pieces every replica must agree
	// on once the plane is quiet.
	states func() [][]replicaState
	// switches sums the instance switches the clients performed.
	switches func() uint64
	stop     func()
}

// buildPlane constructs and starts the workload's cluster and clients. The
// seed reaches the program only through transport.Options.Seed; traced
// attaches the observability plane (registries, span rings, 1-in-16
// sampling).
func buildPlane(ctx context.Context, o Options, traced bool) (*plane, error) {
	delta := o.delta
	if delta <= 0 {
		delta = defaultDelta
	}
	if o.Workload.TCP {
		return buildTCPPlane(ctx, o.Workload, delta, traced)
	}
	return buildLocalPlane(o.Workload, o.Seed, delta, traced)
}

func buildLocalPlane(w Workload, seed int64, delta time.Duration, traced bool) (*plane, error) {
	comp, err := compose.New(compose.MustParse(w.Composition), compose.Options{})
	if err != nil {
		return nil, err
	}
	cfg := deploy.Config{
		F:           1,
		NewApp:      func() app.Application { return app.NewNull(0) },
		Composition: comp,
		Delta:       delta,
		Network:     transport.Options{Seed: seed},
	}
	p := &plane{w: w}
	if traced {
		reg := obs.NewRegistry()
		ring := obs.NewSpanRing("replicas", localRingSpans)
		cfg.Metrics = reg
		cfg.Tracer = obs.NewTracerRing(reg, traceEvery, ring)
		p.obs = &planeObs{
			replicaRegs: []*obs.Registry{reg},
			rings:       []*obs.SpanRing{ring},
			sampler:     obs.NewTracer(obs.NewRegistry(), traceEvery),
		}
	}
	cluster, err := deploy.New(cfg)
	if err != nil {
		return nil, err
	}
	p.local = cluster.Net
	p.stop = cluster.Stop
	if traced {
		// Clients and replicas share the one key store, so this counts every
		// MAC of the request path.
		cluster.Keys.SetMetrics(cfg.Metrics)
		// Local messages are priced at their binary wire size by a pass-all
		// delivery filter rather than Local.SetSizer: the sizer runs under the
		// network's one write lock and would serialize every delivery behind
		// an encode.
		cluster.Net.AddFilter(func(env transport.Envelope) bool {
			p.obs.localBytes.Add(uint64(wireSize(env.Payload)))
			return true
		})
	}
	var switchers []interface{ Switches() uint64 }
	for i := 0; i < w.Clients; i++ {
		c, err := cluster.NewClient(i)
		if err != nil {
			cluster.Stop()
			return nil, err
		}
		p.clients = append(p.clients, c)
		p.ids = append(p.ids, ids.Client(i))
		switchers = append(switchers, c)
	}
	p.switches = func() uint64 {
		var n uint64
		for _, s := range switchers {
			n += s.Switches()
		}
		return n
	}
	p.states = func() [][]replicaState {
		out := make([][]replicaState, len(cluster.Hosts))
		for i, h := range cluster.Hosts {
			seq, dig := h.AppliedState()
			out[i] = []replicaState{{Label: "applied", Seq: seq, Digest: dig}}
		}
		return out
	}
	return p, nil
}

// wireSize prices a Local payload at its binary wire encoding (0 for
// payloads the codec cannot represent).
func wireSize(payload any) int {
	b, err := wirecodec.MarshalWire(payload)
	if err != nil {
		return 0
	}
	return len(b)
}

func buildTCPPlane(ctx context.Context, w Workload, delta time.Duration, traced bool) (*plane, error) {
	topo := deploy.Topology{
		F:               1,
		Shards:          w.Shards,
		Composition:     w.Composition,
		App:             "kv",
		KeyExtractor:    "kv",
		Codec:           "binary",
		DeltaMs:         int(delta / time.Millisecond),
		TraceSampleRate: -1,
	}
	if traced {
		topo.TraceSampleRate = traceEvery
	}
	cluster := topo.Cluster()
	ports, err := proccluster.FreePorts(cluster.N)
	if err != nil {
		return nil, err
	}
	for _, port := range ports {
		topo.Replicas = append(topo.Replicas, fmt.Sprintf("127.0.0.1:%d", port))
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}

	p := &plane{w: w}
	if traced {
		p.obs = &planeObs{sampler: obs.NewTracer(obs.NewRegistry(), traceEvery)}
	}
	var stops []func()
	p.stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	// endpointMetrics instruments one TCP endpoint into a registry of its own
	// (traced run only); it must run before the endpoint's first connection.
	endpointMetrics := func(ep *transport.TCP) {
		if !traced {
			return
		}
		reg := obs.NewRegistry()
		ep.SetMetrics(transport.NewTCPMetrics(reg))
		p.obs.endpointRegs = append(p.obs.endpointRegs, reg)
	}
	quiet := log.New(io.Discard, "", 0)
	var nodes []*shard.Node
	for i := 0; i < cluster.N; i++ {
		self := ids.Replica(i)
		ep, err := topo.NewReplicaEndpoint(self)
		if err != nil {
			p.stop()
			return nil, err
		}
		stops = append(stops, ep.Close)
		endpointMetrics(ep)
		var reg *obs.Registry
		var ring *obs.SpanRing
		if traced {
			reg = obs.NewRegistry()
			ring = obs.NewSpanRing(fmt.Sprintf("replica-%d", i), nodeRingSpans)
			p.obs.replicaRegs = append(p.obs.replicaRegs, reg)
			p.obs.rings = append(p.obs.rings, ring)
		}
		node, err := topo.NewNodeObs(self, ep, quiet, reg, ring, nil)
		if err != nil {
			p.stop()
			return nil, err
		}
		node.Start()
		stops = append(stops, node.Stop)
		nodes = append(nodes, node)
	}

	var shardClients []*shard.Client
	for c := 0; c < w.Clients; c++ {
		id := ids.Client(c)
		dial := topo.DialClient
		if traced {
			dial = func(ctx context.Context, id ids.ProcessID, listenAddr string, depth int) (*transport.TCP, *shard.Client, error) {
				return dialInstrumented(ctx, topo, id, listenAddr, depth, endpointMetrics)
			}
		}
		ep, client, err := dial(ctx, id, "127.0.0.1:0", w.Streams)
		if err != nil {
			p.stop()
			return nil, fmt.Errorf("bench: dialing client %d: %w", c, err)
		}
		stops = append(stops, ep.Close, client.Close)
		p.clients = append(p.clients, client)
		p.ids = append(p.ids, id)
		shardClients = append(shardClients, client)
	}
	p.switches = func() uint64 {
		var n uint64
		for _, c := range shardClients {
			for s := 0; s < w.Shards; s++ {
				n += c.Switches(s)
			}
		}
		return n
	}
	p.states = func() [][]replicaState {
		out := make([][]replicaState, len(nodes))
		for i, n := range nodes {
			for s, h := range n.Hosts {
				seq, dig := h.AppliedState()
				out[i] = append(out[i], replicaState{Label: fmt.Sprintf("shard%d applied", s), Seq: seq, Digest: dig})
			}
			out[i] = append(out[i], replicaState{Label: "merged", Seq: n.Exec.MergedSeq(), Digest: n.Exec.MergedDigest()})
		}
		return out
	}
	return p, nil
}

// dialInstrumented is Topology.DialClient — the same three calls — with the
// endpoint's transport series attached before its first connection:
// DialClient primes the connections before it returns, and only connections
// created after SetMetrics are counted.
func dialInstrumented(ctx context.Context, topo deploy.Topology, id ids.ProcessID, listenAddr string, depth int, instrument func(*transport.TCP)) (*transport.TCP, *shard.Client, error) {
	addrs := topo.AddrMap()
	addrs[id] = listenAddr
	ep, err := transport.NewTCPCodec(id, addrs, topo.Keys(), wirecodec.Binary())
	if err != nil {
		return nil, nil, err
	}
	instrument(ep)
	if err := ep.Prime(ctx, topo.Cluster().Replicas()); err != nil {
		ep.Close()
		return nil, nil, err
	}
	client, err := topo.NewShardClient(id, ep, depth)
	if err != nil {
		ep.Close()
		return nil, nil, err
	}
	return ep, client, nil
}
