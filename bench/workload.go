// Package bench is the repository's one benchmark: four named workloads
// driven from a single process against clusters built through the public
// deploy/shard/transport constructors, end-to-end metrics measured with the
// observability plane off, and a per-layer budget measured from outside the
// program in a separate traced run plus isolated layer probes. README.md has
// the tables, the reasons, and what was left out.
package bench

import "fmt"

// Workload is one named input set. Every workload runs f=1 (four replicas)
// with closed-loop load generated by goroutines of the benchmark process and
// no injected message delay.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (mirrored in
	// BENCHMARK.json).
	Why string
	// Composition is the switching schedule (compose DSL or registered name).
	Composition string
	// Clients is the number of client identities; Streams the closed-loop
	// invocation streams per client (1 = strict invoke-then-wait; above 1 the
	// client is a pipelining one).
	Clients, Streams int
	// TCP selects the deployed plane: shard.Nodes on loopback transport.TCP
	// endpoints with the binary codec, Shards ordering shards, and the KV
	// application. Otherwise the cluster is deploy.New over transport.Local
	// with the null application and 0-byte commands.
	TCP    bool
	Shards int
	// WarmupRequests is the fixed number of committed requests that ends
	// set-up (set-up time is cluster construction + client dial/prime + this
	// warm-up, so work moved into set-up or into the first requests shows).
	WarmupRequests int
}

// KV workload shape: seeded uniform keys, a put-heavy mix, fixed-size values.
const (
	kvKeys      = 1024
	kvGetOneIn  = 10 // 10 % gets, 90 % puts
	kvValueSize = 48
)

// Workloads lists the four workloads in reporting order.
var Workloads = []Workload{
	{
		Name:           "quorum-1c",
		Why:            "paper 0/0 contention-free latency path: one closed-loop client on Aliph's Quorum over transport.Local; authn, core, quorum and host log/execute do all the work, no batcher, codec, socket or shard",
		Composition:    "aliph",
		Clients:        1,
		Streams:        1,
		WarmupRequests: 4000,
	},
	{
		Name:           "zlight-sat",
		Why:            "paper throughput path with full batches: 24 closed-loop clients on AZyzzyva/ZLight, default 16/1ms batching; host lock, Batcher size-flush, ORDER fan-out and the history digest chain dominate",
		Composition:    "azyzzyva",
		Clients:        24,
		Streams:        1,
		WarmupRequests: 8000,
	},
	{
		Name:           "zlight-low",
		Why:            "same layers as zlight-sat used the other way: 4 clients never fill a batch, so the Batcher timer-flush sets latency; a batching change that wins on one and costs the other must show",
		Composition:    "azyzzyva",
		Clients:        4,
		Streams:        1,
		WarmupRequests: 1000,
	},
	{
		Name:           "kv-tcp-2shard",
		Why:            "the deployed plane: 2-shard AZyzzyva KV over loopback TCP, binary codec, 2 client endpoints x depth 8, 90/10 put/get on 1024 keys; wirecodec, flush coalescing, shard merge, KV app, checkpoints work",
		Composition:    "azyzzyva",
		Clients:        2,
		Streams:        8,
		TCP:            true,
		Shards:         2,
		WarmupRequests: 2000,
	},
}

// WorkloadByName looks a workload up.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}
