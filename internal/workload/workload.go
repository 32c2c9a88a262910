// Package workload drives closed-loop clients against any protocol of the
// repository and records their request latencies (cmd/client and the
// examples run their loads through it).
package workload

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/shard"
)

// Invoker abstracts a closed-loop client of any protocol in the repository:
// composed Abstract protocols (core.Composer) and sharded clients
// (shard.Client) satisfy it through small adapters.
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
	Latency *LatencyRecorder
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
// elapses. When newInvoker fails, the clients already started are cancelled
// and awaited before the error returns.
func RunClosedLoop(ctx context.Context, cfg ClosedLoopConfig, newInvoker func(i int) (Invoker, ids.ProcessID, error)) (Result, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.RequestsPerClient <= 0 && cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	res := Result{Latency: NewLatencyRecorder()}
	var runCtx context.Context
	var cancel context.CancelFunc
	if cfg.Duration > 0 {
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
	} else {
		runCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

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
			cancel()
			wg.Wait()
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
					mu.Lock()
					res.Committed++
					mu.Unlock()
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
