// Command client runs closed-loop clients against a TCP deployment of a
// composed Abstract protocol started with cmd/replica.
//
// It drives the sharded plane from the JSON topology file the replicas run
// (a one-shard file deploys a single unsharded composition): every
// closed-loop client is a keyed shard.Client
// (per-shard pipelined composers, requests routed to the shard owning their
// key), and the workload is keyed to spread across shards — encoded KV
// operations when the topology routes by the "kv" extractor, 8-byte-prefix
// keyed commands otherwise:
//
//	go run ./cmd/client -topology cluster.json -clients 4 -requests 1000
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"abstractbft/internal/deploy"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
	"abstractbft/internal/workload"
)

func main() {
	var (
		topoPath    = flag.String("topology", "", "topology JSON file shared with the replicas (required)")
		clients     = flag.Int("clients", 1, "number of closed-loop clients")
		requests    = flag.Int("requests", 100, "requests per client (0 = run for -duration)")
		duration    = flag.Duration("duration", 0, "run length when -requests is 0")
		requestSize = flag.Int("request-size", 0, "request payload size in bytes")
		pipeline    = flag.Int("pipeline", 0, "per-shard pipeline depth (0 = the topology's default)")
		keySpace    = flag.Int("key-space", 0, "distinct workload keys (0 = 16 per shard)")
		baseID      = flag.Int("base-id", 0, "first client index (use distinct ranges per client process)")
		listenBase  = flag.Int("listen-base", 8100, "first local TCP port for client endpoints")
		metricsAt   = flag.String("metrics-addr", "", "observability listen address serving /metrics and /metrics.json (empty = metrics off)")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof on the observability address (also enabled by the topology's pprof knob)")
	)
	flag.Parse()

	if *topoPath == "" {
		fmt.Fprintln(os.Stderr, "client: -topology is required")
		flag.Usage()
		os.Exit(2)
	}
	topo, err := deploy.LoadTopology(*topoPath)
	if err != nil {
		log.Fatalf("topology: %v", err)
	}
	keys := *keySpace
	if keys <= 0 {
		keys = 16 * topo.ShardCount()
	}
	depth := *pipeline
	if depth <= 0 {
		depth = topo.Pipeline
	}
	cfg := workload.ClosedLoopConfig{
		Clients:           *clients,
		RequestsPerClient: *requests,
		Duration:          *duration,
		RequestSize:       *requestSize,
		Pipeline:          depth,
	}
	// Generate commands in the format the topology's extractor routes by
	// (the "kv" extractor sees one shard for every prefix8-keyed command
	// and vice versa, so generation must follow routing).
	if topo.ExtractorName() == "kv" {
		cfg.CommandOf = workload.KVPutCommandOf(*baseID, keys)
	} else {
		cfg.KeySpace = keys
		cfg.KeyOf = func(client int, ts uint64) uint64 {
			return (uint64(*baseID+client) + ts) % uint64(keys)
		}
	}
	if topo.Pprof {
		*pprofOn = true
	}
	// tracer makes the cluster-wide head sampling decision at the client (set
	// when metrics are on): sampled requests carry their trace context on the
	// wire so every downstream process records spans under the same trace ID.
	var tracer *obs.Tracer
	newInvoker := func(i int) (workload.Invoker, ids.ProcessID, error) {
		clientID := ids.Client(*baseID + i)
		// DialClient primes the endpoint (connection proof completed with
		// every replica before the first request), so no reply is dropped
		// at an un-proven route.
		dialCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, client, err := topo.DialClient(dialCtx, clientID, fmt.Sprintf("127.0.0.1:%d", *listenBase+i), depth)
		cancel()
		if err != nil {
			return nil, 0, err
		}
		// The sharded client stamps sampled requests itself and records
		// the root send span, so the metrics wrapper below only keeps the
		// counters and the RTT histogram.
		client.SetTracer(tracer)
		return workload.InvokerFunc(func(ctx context.Context, req msg.Request) ([]byte, error) {
			return client.Invoke(ctx, req)
		}), clientID, nil
	}

	// When requested, serve the client's own observability front door (metrics,
	// span ring, flight recorder, optional pprof) and wrap every invoker with
	// the request/error counters and the RTT histogram. The tracer head-samples
	// at the topology's trace_sample_rate.
	var srv *obs.Server
	if *metricsAt != "" {
		reg := obs.NewRegistry()
		spans := obs.NewSpanRing(fmt.Sprintf("client-%d", *baseID), 0)
		flight := obs.NewFlight(fmt.Sprintf("client-%d", *baseID), 0)
		srv, err = obs.ServeObs(*metricsAt, obs.ServeConfig{
			Registry: reg,
			Spans:    spans,
			Flight:   flight,
			Pprof:    *pprofOn,
		})
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		log.Printf("metrics on http://%s/metrics", srv.Addr())
		reqs := reg.Counter("client_requests_total")
		errs := reg.Counter("client_errors_total")
		rtt := reg.Histogram("client_rtt_seconds", obs.LatencyBuckets)
		tracer = obs.NewTracerRing(reg, topo.TraceRate(), spans)
		inner := newInvoker
		newInvoker = func(i int) (workload.Invoker, ids.ProcessID, error) {
			inv, id, err := inner(i)
			if err != nil {
				return nil, 0, err
			}
			return workload.InvokerFunc(func(ctx context.Context, req msg.Request) ([]byte, error) {
				start := time.Now()
				out, err := inv.Invoke(ctx, req)
				reqs.Inc()
				if err != nil {
					errs.Inc()
				}
				rtt.ObserveDuration(time.Since(start))
				return out, err
			}), id, nil
		}
	}

	ctx := context.Background()
	res, err := workload.RunClosedLoop(ctx, cfg, newInvoker)
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	if srv != nil {
		defer srv.Shutdown()
	}
	fmt.Printf("committed %d requests in %v\n", res.Committed, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f req/s\n", res.ThroughputOps())
	fmt.Printf("latency: mean %.2f ms, p50 %.2f ms, p99 %.2f ms\n",
		float64(res.Latency.Mean().Microseconds())/1000,
		float64(res.Latency.Percentile(50).Microseconds())/1000,
		float64(res.Latency.Percentile(99).Microseconds())/1000)
}
