// Package workload implements the paper's workloads: the closed-loop x/y
// microbenchmarks (request payload of x kB, reply payload of y kB) used by
// all throughput and latency experiments, the dynamic (fluctuating) workload
// of Fig. 15, and the fault schedule of Fig. 14.
package workload

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/ids"
	"abstractbft/internal/metrics"
	"abstractbft/internal/msg"
	"abstractbft/internal/shard"
)

// Invoker abstracts a closed-loop client of any protocol in the repository:
// composed Abstract protocols (core.Composer), sharded clients
// (shard.Client) and R-Aliph clients all satisfy it through small adapters.
type Invoker interface {
	Invoke(ctx context.Context, req msg.Request) ([]byte, error)
}

// InvokerFunc adapts a function to the Invoker interface.
type InvokerFunc func(ctx context.Context, req msg.Request) ([]byte, error)

// Invoke implements Invoker.
func (f InvokerFunc) Invoke(ctx context.Context, req msg.Request) ([]byte, error) { return f(ctx, req) }

// KVPutCommandOf returns a CommandOf generator issuing encoded KV puts over
// a bounded key set (round-robin, offset per client): the keyed workload of
// deployments routed by shard.KVKeyExtractor. Every put is readable back for
// end-to-end verification. cmd/client and the TCP sharding benchmark share
// it, so the CLI workload and the recorded rows cannot drift apart.
func KVPutCommandOf(baseClient, keySpace int) func(client int, ts uint64) []byte {
	if keySpace <= 0 {
		keySpace = 1
	}
	return func(client int, ts uint64) []byte {
		c := baseClient + client
		k := (uint64(c) + ts) % uint64(keySpace)
		return app.EncodeKVPut(fmt.Sprintf("key-%d", k), fmt.Sprintf("c%d-t%d", c, ts))
	}
}

// Benchmark describes an x/y microbenchmark.
type Benchmark struct {
	// Name is the paper's designation, e.g. "0/0", "4/0", "0/4".
	Name string
	// RequestSize is the request payload in bytes.
	RequestSize int
	// ReplySize is the reply payload in bytes (configured on the Null
	// application of the deployment).
	ReplySize int
}

// Standard microbenchmarks of the paper.
var (
	Benchmark00 = Benchmark{Name: "0/0", RequestSize: 0, ReplySize: 0}
	Benchmark40 = Benchmark{Name: "4/0", RequestSize: 4 * 1024, ReplySize: 0}
	Benchmark04 = Benchmark{Name: "0/4", RequestSize: 0, ReplySize: 4 * 1024}
)

// ClosedLoopConfig drives a set of closed-loop clients.
type ClosedLoopConfig struct {
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// RequestsPerClient bounds the number of requests each client issues
	// (0 = until Duration elapses).
	RequestsPerClient int
	// Duration bounds the run when RequestsPerClient is 0.
	Duration time.Duration
	// RequestSize is the request payload size in bytes.
	RequestSize int
	// Think is an optional delay between consecutive requests of a client.
	Think time.Duration
	// Pipeline is the number of invocations each client keeps in flight
	// concurrently (0 or 1 = strict invoke-then-wait). Values above 1
	// require a pipelining-capable invoker (core.PipelinedComposer): the
	// goroutines of one client share its identity and draw timestamps from
	// one counter.
	Pipeline int
	// KeySpace, when positive, makes the generators keyed: every command
	// carries an 8-byte big-endian key prefix (shard.KeyedCommand) drawn
	// from [0, KeySpace), so the sharded plane can partition the requests by
	// key. KeyOf picks the key per request; 0 leaves commands unkeyed.
	KeySpace int
	// KeyOf selects the key of client i's request with timestamp ts; nil
	// selects round-robin over the key space, offset per client.
	KeyOf func(client int, ts uint64) uint64
	// CommandOf, when non-nil, builds the whole command of client i's request
	// with timestamp ts, overriding the RequestSize/KeySpace generation —
	// application-format workloads (e.g. encoded KV operations routed by
	// shard.KVKeyExtractor) plug in here.
	CommandOf func(client int, ts uint64) []byte
}

// Result aggregates the outcome of a closed-loop run.
type Result struct {
	// Committed is the number of requests that committed.
	Committed uint64
	// Errors is the number of invocation errors (timeouts/cancellations).
	Errors uint64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Latency collects per-request latencies.
	Latency *metrics.LatencyRecorder
	// Throughput is the committed-requests time series.
	Throughput *metrics.Throughput
}

// ThroughputOps returns the average committed operations per second.
func (r Result) ThroughputOps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// RunClosedLoop runs the closed-loop clients returned by newInvoker (one per
// client index) until each issues its request budget or the duration
// elapses.
func RunClosedLoop(ctx context.Context, cfg ClosedLoopConfig, newInvoker func(i int) (Invoker, ids.ProcessID, error)) (Result, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.RequestsPerClient <= 0 && cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	res := Result{
		Latency:    metrics.NewLatencyRecorder(),
		Throughput: metrics.NewThroughput(100 * time.Millisecond),
	}
	runCtx := ctx
	var cancel context.CancelFunc
	if cfg.Duration > 0 {
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	pipeline := cfg.Pipeline
	if pipeline <= 0 {
		pipeline = 1
	}
	keyOf := cfg.KeyOf
	if keyOf == nil && cfg.KeySpace > 0 {
		keyOf = func(client int, ts uint64) uint64 {
			return (uint64(client) + ts) % uint64(cfg.KeySpace)
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	errs := make([]error, 0)
	for i := 0; i < cfg.Clients; i++ {
		inv, clientID, err := newInvoker(i)
		if err != nil {
			return res, fmt.Errorf("workload: building client %d: %w", i, err)
		}
		// All pipeline streams of one client share its identity and draw
		// timestamps from one counter, keeping them unique and increasing.
		var nextTS atomic.Uint64
		for s := 0; s < pipeline; s++ {
			wg.Add(1)
			clientIndex := i
			go func(inv Invoker, clientID ids.ProcessID) {
				defer wg.Done()
				payload := make([]byte, cfg.RequestSize)
				for {
					ts := nextTS.Add(1)
					if cfg.RequestsPerClient > 0 && ts > uint64(cfg.RequestsPerClient) {
						return
					}
					if runCtx.Err() != nil {
						return
					}
					command := payload
					if cfg.CommandOf != nil {
						command = cfg.CommandOf(clientIndex, ts)
					} else if keyOf != nil {
						command = shard.KeyedCommand(keyOf(clientIndex, ts), payload)
					}
					req := msg.Request{Client: clientID, Timestamp: ts, Command: command}
					t0 := time.Now()
					_, err := inv.Invoke(runCtx, req)
					if err != nil {
						// End-of-window cancellations are how duration-bounded
						// runs stop; only genuine failures count as errors.
						if runCtx.Err() == nil {
							mu.Lock()
							res.Errors++
							errs = append(errs, err)
							mu.Unlock()
						}
						return
					}
					res.Latency.Record(time.Since(t0))
					res.Throughput.Record()
					mu.Lock()
					res.Committed++
					mu.Unlock()
					if cfg.Think > 0 {
						time.Sleep(cfg.Think)
					}
				}
			}(inv, clientID)
		}
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if len(errs) > 0 {
		return res, errs[0]
	}
	return res, nil
}

// Phase is one step of a dynamic workload: a number of concurrent clients
// issuing requests of a given size for a duration.
type Phase struct {
	Name        string
	Clients     int
	RequestSize int
	Duration    time.Duration
}

// DynamicWorkload is the fluctuating-contention workload of Fig. 15: a ramp
// from 1 to 10 clients, a spike of 30 clients, and a ramp back down to 1.
func DynamicWorkload(scale time.Duration) []Phase {
	if scale <= 0 {
		scale = 500 * time.Millisecond
	}
	phases := []Phase{}
	for _, n := range []int{1, 2, 5, 10} {
		phases = append(phases, Phase{Name: fmt.Sprintf("ramp-up-%d", n), Clients: n, RequestSize: 512, Duration: scale})
	}
	phases = append(phases, Phase{Name: "spike-30", Clients: 30, RequestSize: 1024, Duration: 2 * scale})
	for _, n := range []int{10, 5, 2, 1} {
		phases = append(phases, Phase{Name: fmt.Sprintf("ramp-down-%d", n), Clients: n, RequestSize: 512, Duration: scale})
	}
	return phases
}

// RunPhases runs a sequence of phases against a single protocol deployment,
// reusing client identities across phases (timestamps keep increasing).
func RunPhases(ctx context.Context, phases []Phase, newInvoker func(i int) (Invoker, ids.ProcessID, error)) ([]Result, error) {
	type clientState struct {
		inv    Invoker
		id     ids.ProcessID
		nextTS uint64
	}
	clients := make(map[int]*clientState)
	getClient := func(i int) (*clientState, error) {
		if c, ok := clients[i]; ok {
			return c, nil
		}
		inv, id, err := newInvoker(i)
		if err != nil {
			return nil, err
		}
		c := &clientState{inv: inv, id: id, nextTS: 1}
		clients[i] = c
		return c, nil
	}

	var results []Result
	for _, phase := range phases {
		res := Result{
			Latency:    metrics.NewLatencyRecorder(),
			Throughput: metrics.NewThroughput(100 * time.Millisecond),
		}
		phaseCtx, cancel := context.WithTimeout(ctx, phase.Duration)
		var wg sync.WaitGroup
		var mu sync.Mutex
		start := time.Now()
		for i := 0; i < phase.Clients; i++ {
			c, err := getClient(i)
			if err != nil {
				cancel()
				return results, err
			}
			wg.Add(1)
			go func(c *clientState) {
				defer wg.Done()
				payload := make([]byte, phase.RequestSize)
				for phaseCtx.Err() == nil {
					mu.Lock()
					ts := c.nextTS
					c.nextTS++
					mu.Unlock()
					req := msg.Request{Client: c.id, Timestamp: ts, Command: payload}
					t0 := time.Now()
					if _, err := c.inv.Invoke(phaseCtx, req); err != nil {
						return
					}
					res.Latency.Record(time.Since(t0))
					res.Throughput.Record()
					mu.Lock()
					res.Committed++
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		cancel()
		res.Elapsed = time.Since(start)
		results = append(results, res)
		if ctx.Err() != nil {
			return results, ctx.Err()
		}
	}
	return results, nil
}
