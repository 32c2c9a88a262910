// Command replica runs one replica of a composed Abstract protocol over TCP,
// for multi-process deployments on one or several machines.
//
// It runs the sharded plane (any registered composition, S parallel shards
// demultiplexed over one authenticated TCP endpoint; a one-shard file
// deploys a single unsharded composition) from a JSON topology file shared
// with cmd/client:
//
//	go run ./cmd/replica -topology cluster.json -id 0
//
// A crash-restarted process rejoins with -recover: it collects the
// f+1-agreed merged boundary from its live peers, restores the merged
// mirror, and state-syncs every shard via the FETCH-STATE transfer, with the
// automatic re-agreement retry re-pinning the sync if live traffic prunes
// the pinned boundary:
//
//	go run ./cmd/replica -topology cluster.json -id 0 -recover
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"abstractbft/internal/deploy"
	"abstractbft/internal/ids"
	"abstractbft/internal/obs"
	"abstractbft/internal/transport"
)

func main() {
	var (
		id         = flag.Int("id", 0, "replica index (0-based)")
		topoPath   = flag.String("topology", "", "topology JSON file shared with the clients (required)")
		recoverOpt = flag.Bool("recover", false, "rejoin a live cluster after a crash-restart (collect the merged boundary from peers and state-sync every shard)")
		recoverTO  = flag.Duration("recover-timeout", 30*time.Second, "how long -recover waits for an f+1-agreed merged boundary")
		metricsAt  = flag.String("metrics-addr", "", "observability listen address serving /metrics and /metrics.json (overrides the topology's metrics_addrs entry)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof on the observability address (also enabled by the topology's pprof knob)")
	)
	flag.Parse()

	// Every log line carries the replica identity, so interleaved multi-process
	// logs (and the shard-tagged sub-host lines layered on top) stay
	// attributable.
	log.SetPrefix(fmt.Sprintf("[r%d] ", *id))

	if *topoPath == "" {
		fmt.Fprintln(os.Stderr, "replica: -topology is required")
		flag.Usage()
		os.Exit(2)
	}
	runTopology(*topoPath, *id, *recoverOpt, *recoverTO, *metricsAt, *pprofOn)
}

// newReplicaLogger builds the replica's logger: stderr with microsecond
// timestamps, every line prefixed by the replica identity.
func newReplicaLogger(id int) *log.Logger {
	return log.New(os.Stderr, fmt.Sprintf("[r%d] ", id), log.LstdFlags|log.Lmicroseconds)
}

// serveObs starts the observability front door on addr (empty = off):
// /metrics + /metrics.json off the registry, /debug/traces.json off the span
// ring, /debug/flight.json off the flight recorder, and net/http/pprof when
// pprofOn. The span ring and flight recorder are labelled with the process
// name so cluster-wide dumps stay attributable. All returns are nil when off.
func serveObs(addr, process string, pprofOn bool) (*obs.Registry, *obs.Server, *obs.SpanRing, *obs.Flight) {
	if addr == "" {
		return nil, nil, nil, nil
	}
	reg := obs.NewRegistry()
	spans := obs.NewSpanRing(process, 0)
	flight := obs.NewFlight(process, 0)
	srv, err := obs.ServeObs(addr, obs.ServeConfig{
		Registry: reg,
		Spans:    spans,
		Flight:   flight,
		Pprof:    pprofOn,
	})
	if err != nil {
		log.Fatalf("metrics: %v", err)
	}
	log.Printf("metrics on http://%s/metrics", srv.Addr())
	return reg, srv, spans, flight
}

func closeMetrics(srv *obs.Server) {
	if srv != nil {
		srv.Shutdown()
	}
}

// runTopology runs one sharded replica node of a topology-file deployment:
// S complete composition sub-hosts (one per shard, leaders rotated) behind
// one authenticated TCP endpoint, the shard router demultiplexing
// shard.Mark-wrapped traffic, and the asynchronous execution stage merging
// the shards' ordered spans.
func runTopology(path string, id int, recoverOpt bool, recoverTO time.Duration, metricsAt string, pprofOn bool) {
	topo, err := deploy.LoadTopology(path)
	if err != nil {
		log.Fatalf("topology: %v", err)
	}
	cluster := topo.Cluster()
	if id < 0 || id >= cluster.N {
		log.Fatalf("replica id %d out of range for f=%d (need 0..%d)", id, topo.F, cluster.N-1)
	}
	self := ids.Replica(id)
	ep, err := topo.NewReplicaEndpoint(self)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	if metricsAt == "" {
		metricsAt = topo.MetricsAddr(self)
	}
	reg, srv, spans, flight := serveObs(metricsAt, fmt.Sprintf("replica-%d", id), pprofOn || topo.Pprof)
	ep.SetMetrics(transport.NewTCPMetrics(reg))
	ep.SetFlight(flight)
	logger := newReplicaLogger(id)
	node, err := topo.NewNodeObs(self, ep, logger, reg, spans, flight)
	if err != nil {
		log.Fatalf("node: %v", err)
	}

	if recoverOpt {
		log.Printf("replica %v recovering: collecting merged boundary from peers", self)
		ctx, cancel := context.WithTimeout(context.Background(), recoverTO)
		if err := node.RecoverFromPeers(ctx); err != nil {
			cancel()
			log.Fatalf("recover: %v", err)
		}
		cancel()
		// The per-shard transfers complete asynchronously (the re-agreement
		// monitor re-pins them if live traffic prunes the pinned boundary);
		// log the moment the node is fully caught up so operators and
		// harnesses can see recovery complete.
		go func() {
			for node.Syncing() {
				time.Sleep(20 * time.Millisecond)
			}
			seq, _, _ := node.Exec.MergedSnapshot()
			log.Printf("replica %v recovered: all shards synced, merged seq %d", self, seq)
		}()
	} else {
		node.Start()
	}
	log.Printf("replica %v (%s, f=%d, shards=%d) listening on %s",
		self, topo.Composition, topo.F, topo.ShardCount(), ep.Addr())

	awaitSignal()
	node.Stop()
	ep.Close()
	closeMetrics(srv)
}

func awaitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
}
