// Package e2e holds the process-level end-to-end tests: real cmd/replica and
// cmd/client OS processes on loopback TCP, driven through the same binaries
// and topology files an operator deploys. This is the deployment fidelity the
// in-process harnesses cannot give — separate address spaces, real sockets
// with the connection handshake, SIGKILL crashes, and -recover rejoins.
package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/deploy"
	"abstractbft/internal/obs"
	"abstractbft/internal/obsctl"
	"abstractbft/internal/proccluster"
)

// dumpLogs attaches every process log to the test output (failure
// diagnostics).
func dumpLogs(t *testing.T, cluster *proccluster.Cluster) {
	t.Helper()
	entries, _ := os.ReadDir(cluster.Dir)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		data, _ := os.ReadFile(cluster.Dir + "/" + e.Name())
		t.Logf("=== %s ===\n%s", e.Name(), data)
	}
}

// sharedBins builds the replica/client binaries once per test process.
var (
	binOnce    sync.Once
	binDir     string
	replicaBin string
	clientBin  string
	binErr     error
)

func buildBins(t *testing.T) (string, string) {
	t.Helper()
	binOnce.Do(func() {
		binDir, binErr = os.MkdirTemp("", "abstractbft-e2e-bin")
		if binErr != nil {
			return
		}
		replicaBin, clientBin, binErr = proccluster.BuildBinaries(binDir)
	})
	if binErr != nil {
		t.Fatalf("building binaries: %v", binErr)
	}
	return replicaBin, clientBin
}

// testTopology is the 4-replica sharded KV deployment the process tests run:
// two shards (so the crash-restart exercises the multi-shard pin race),
// short checkpoints (so recovery goes through real snapshot transfer), and a
// client delta generous enough that the kill-to-recover window stalls
// clients instead of panicking them into instance switches.
func testTopology() deploy.Topology {
	return deploy.Topology{
		F:                  1,
		Shards:             2,
		Composition:        "azyzzyva",
		KeyExtractor:       "kv",
		App:                "kv",
		ShardEpoch:         1,
		CheckpointInterval: 8,
		// The kill-to-recovered window (a second or two) stays inside the
		// clients' panic timers (ZLight's is 3Δ). Requests in flight at the
		// kill still panic — the restarted replica adopts them by state
		// transfer and never replies — so each 30 s budget below must cover a
		// panic/switch cycle with room for retransmissions: 3Δ, plus 2Δ per
		// PANIC retransmission, plus Backup's 10Δ retry. At Δ = 8 s a single
		// retransmission already outran a budget.
		DeltaMs:  2000,
		Pipeline: 2,
		// Head-sample every request: the stitched-trace assertions below need
		// deterministic span coverage, and the e2e workload is tiny.
		TraceSampleRate: 1,
	}
}

func startCluster(t *testing.T, topo deploy.Topology) *proccluster.Cluster {
	t.Helper()
	rb, cb := buildBins(t)
	cluster, err := proccluster.Start(proccluster.Config{
		Dir:        t.TempDir(),
		Topology:   topo,
		ReplicaBin: rb,
		ClientBin:  cb,
	})
	if err != nil {
		t.Fatalf("starting process cluster: %v", err)
	}
	t.Cleanup(cluster.StopAll)
	return cluster
}

// TestProcessShardedClusterSmoke is the -short-friendly smoke: a 4-replica
// sharded KV cluster as real OS processes over authenticated TCP, a real
// cmd/client process committing a keyed workload against it, and an in-test
// verifier reading a written key back.
func TestProcessShardedClusterSmoke(t *testing.T) {
	cluster := startCluster(t, testTopology())

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	out, err := cluster.RunClient(ctx, "-clients", "2", "-requests", "40")
	if err != nil {
		t.Fatalf("client process failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "committed 80 requests") {
		t.Fatalf("client process did not commit the full workload:\n%s", out)
	}

	ep, v, err := cluster.NewVerifier(90, 0)
	if err != nil {
		t.Fatalf("verifier: %v", err)
	}
	defer ep.Close()
	defer v.Close()
	// Head-sample the verifier's requests (rate 1 from the test topology):
	// each put/get below stamps a trace context that rides the wire, so the
	// replica processes record spans for it in their own address spaces.
	spans := obs.NewSpanRing("verifier-90", 0)
	v.Client.SetTracer(obs.NewTracerRing(obs.NewRegistry(), cluster.Topo.TraceRate(), spans))
	if _, err := v.Put(ctx, "smoke", "works"); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, _, err := v.Get(ctx, "smoke")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got != "works" {
		t.Fatalf("get returned %q, want %q", got, "works")
	}

	// Observability front door: every replica process serves Prometheus text
	// on its topology-assigned metrics address, and a cluster that just
	// committed a workload must show non-zero core series from every layer.
	for _, series := range []string{
		"host_logged_requests_total",
		"transport_frames_total",
		"shard_merged_requests_total",
		"authn_mac_ops_total",
		"compose_active_protocol",
	} {
		if err := assertSeriesNonZero(cluster.MetricsAddr(0), series); err != nil {
			dumpLogs(t, cluster)
			t.Fatalf("replica 0 /metrics: %v", err)
		}
	}
	// The JSON snapshot front door serves the same registry.
	snap, err := fetchSnapshot(cluster.MetricsAddr(0))
	if err != nil {
		t.Fatalf("replica 0 /metrics.json: %v", err)
	}
	if len(snap.Counters) == 0 {
		t.Fatalf("replica 0 /metrics.json returned no counters")
	}

	// Distributed tracing, stitched cluster-wide: scrape every replica
	// process's span ring over HTTP, add the in-test verifier's own ring (the
	// cmd/client process has already exited), and stitch. At least one trace
	// must span three or more OS processes — the verifier plus two replicas —
	// proving the context propagated across real sockets.
	dumps := scrapeCluster(cluster)
	dumps = append(dumps, obsctl.ProcessDump{Addr: "in-test", Process: "verifier-90", Traces: spans.Dump()})
	traces := obsctl.Stitch(dumps)
	if len(traces) == 0 {
		dumpLogs(t, cluster)
		t.Fatalf("no stitched traces: verifier ring %d spans", len(spans.Snapshot()))
	}
	var wide *obsctl.Trace
	for _, tr := range traces {
		if tr.Covers(3) && tr.HasStage("send") && tr.HasStage("execute") {
			wide = tr
			break
		}
	}
	if wide == nil {
		var b strings.Builder
		obsctl.WriteTraces(&b, traces, 10)
		t.Fatalf("no trace spans 3+ processes with send+execute stages:\n%s", b.String())
	}

	// The protocol flight recorder: a run that committed checkpoints must
	// have recorded events on every replica's black box.
	for i, d := range dumps[:cluster.Topo.Cluster().N] {
		if d.Err != nil {
			t.Fatalf("replica %d flight scrape: %v", i, d.Err)
		}
		if len(d.Flight.Events) == 0 {
			t.Fatalf("replica %d flight recorder is empty after a checkpointing run", i)
		}
	}

	// The health plane obsctl renders: no replica may diverge from the f+1
	// majority on active protocol, and the quiesced cluster agrees on applied
	// sequence within the scrape slack.
	healths := obsctl.HealthAll(dumps[:cluster.Topo.Cluster().N])
	if flags := obsctl.Divergence(healths, cluster.Topo.F, 64); len(flags) != 0 {
		var b strings.Builder
		obsctl.WriteHealthTable(&b, healths)
		t.Fatalf("healthy cluster flagged as diverged: %v\n%s", flags, b.String())
	}
}

// TestProcessOneShardAliph deploys one unsharded Aliph composition as real
// processes from a one-shard topology file, and a client process must commit
// its whole workload against it.
func TestProcessOneShardAliph(t *testing.T) {
	cluster := startCluster(t, deploy.Topology{F: 1, Shards: 1, Composition: "aliph", App: "kv", KeyExtractor: "kv"})
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	out, err := cluster.RunClient(ctx, "-requests", "100")
	if err != nil || !strings.Contains(out, "committed 100 requests") {
		dumpLogs(t, cluster)
		t.Fatalf("client process did not commit the workload (%v):\n%s", err, out)
	}
}

// scrapeCluster scrapes every replica's observability front door.
func scrapeCluster(cluster *proccluster.Cluster) []obsctl.ProcessDump {
	n := cluster.Topo.Cluster().N
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = cluster.MetricsAddr(i)
	}
	return obsctl.ScrapeAll(addrs, 5*time.Second)
}

// assertSeriesNonZero scrapes http://addr/metrics and checks that at least
// one sample of the family has a non-zero value.
func assertSeriesNonZero(addr, family string) error {
	if addr == "" {
		return fmt.Errorf("no metrics address assigned")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	found := false
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, family) || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		found = true
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil && v != 0 {
			return nil
		}
	}
	if !found {
		return fmt.Errorf("series %s absent from exposition:\n%s", family, body)
	}
	return fmt.Errorf("series %s present but all samples are zero:\n%s", family, body)
}

// fetchSnapshot reads the JSON snapshot endpoint.
func fetchSnapshot(addr string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// TestProcessShardedCrashRestart is the crash-restart e2e over real
// processes: a keyed KV workload runs through a cmd/client process while one
// replica process is SIGKILLed mid-run and restarted with -recover. The
// restarted process must collect the f+1-agreed merged boundary from its
// peers, state-sync every shard over TCP, and serve commits again — and
// because per-shard ZLight commits require matching RESPs from all 3f+1
// replicas, every post-restart commit certifies the restarted process's
// digest convergence end to end. The test also asserts cached-reply
// correctness across the restart: a retransmission of a pre-kill request
// must return the original reply even after the key was overwritten.
func TestProcessShardedCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level crash-restart e2e is skipped in -short mode")
	}
	cluster := startCluster(t, testTopology())
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	ep, v, err := cluster.NewVerifier(90, 0)
	if err != nil {
		t.Fatalf("verifier: %v", err)
	}
	defer ep.Close()
	defer v.Close()
	spans := obs.NewSpanRing("verifier-90", 0)
	v.Client.SetTracer(obs.NewTracerRing(obs.NewRegistry(), cluster.Topo.TraceRate(), spans))

	// Pre-kill state: a canary key and a committed read whose reply the
	// cluster must later serve from cache.
	if _, err := v.Put(ctx, "canary", "before-crash"); err != nil {
		t.Fatalf("pre-kill put: %v", err)
	}
	cachedVal, cachedTS, err := v.Get(ctx, "canary")
	if err != nil {
		t.Fatalf("pre-kill get: %v", err)
	}
	if cachedVal != "before-crash" {
		t.Fatalf("pre-kill get returned %q", cachedVal)
	}

	// Background workload through a real cmd/client process. It keeps
	// committing while the replica is down (stalling, not failing, thanks to
	// the generous delta) and must finish with every request committed.
	workload, err := cluster.StartClient("-clients", "2", "-requests", "3000")
	if err != nil {
		t.Fatalf("starting workload client: %v", err)
	}
	// A failure before the workload finishes must not leave it running.
	defer workload.Kill()

	// SIGKILL replica 3 mid-run and restart it with -recover.
	time.Sleep(1500 * time.Millisecond)
	if err := cluster.KillReplica(3); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := cluster.StartReplica(3, true); err != nil {
		t.Fatalf("restart: %v", err)
	}

	// Convergence: a commit requires all 3f+1 replicas, so the first
	// successful post-restart put proves the restarted process caught up via
	// the statesync transfer and answers with converged digests. Each probe
	// gets a budget covering several panic/switch cycles — a shorter one
	// would abandon invocations mid-switch and livelock the composer through
	// ever-higher instances.
	probeDeadline := time.Now().Add(100 * time.Second)
	for {
		probeCtx, probeCancel := context.WithTimeout(ctx, 30*time.Second)
		_, err := v.Put(probeCtx, "post-restart", "committed")
		probeCancel()
		if err == nil {
			break
		}
		if time.Now().After(probeDeadline) {
			dumpLogs(t, cluster)
			t.Fatalf("no commit after restart: %v", err)
		}
	}

	// Flight-recorder acceptance, scraped NOW: the restarted replica just
	// state-synced, so its (fresh) flight ring still holds the
	// statesync-start/adopt events near its head. Scraping at test end would
	// race the 3000-request workload's checkpoint/GC events evicting them
	// from the bounded ring.
	sawStatesync := false
	for i, d := range scrapeCluster(cluster) {
		if d.Err != nil {
			t.Fatalf("replica %d flight scrape: %v", i, d.Err)
		}
		for _, e := range d.Flight.Events {
			if strings.HasPrefix(e.Kind, "statesync") {
				sawStatesync = true
			}
		}
	}
	if !sawStatesync {
		dumpLogs(t, cluster)
		t.Fatal("no replica's flight recorder captured the statesync recovery")
	}

	// The workload process must finish every request (exit status 0).
	done := make(chan error, 1)
	go func() { done <- workload.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			log, _ := os.ReadFile(workload.LogPath)
			t.Fatalf("workload client: %v\n%s", err, log)
		}
	case <-time.After(240 * time.Second):
		workload.Kill()
		log, _ := os.ReadFile(workload.LogPath)
		dumpLogs(t, cluster)
		t.Fatalf("workload client did not finish\n%s", log)
	}

	// Cached-reply correctness across the restart: overwrite the canary,
	// then retransmit the pre-kill read at its original timestamp. The reply
	// rings (restored on the recovered replica via the snapshot's timestamp
	// windows and reply caches of the live ones) must serve the original
	// value, not re-execute the read against the new state.
	if _, err := v.Put(ctx, "canary", "after-restart"); err != nil {
		t.Fatalf("overwrite put: %v", err)
	}
	reCtx, reCancel := context.WithTimeout(ctx, 30*time.Second)
	replay, err := v.Reinvoke(reCtx, cachedTS, app.EncodeKVGet("canary"))
	reCancel()
	if err != nil {
		t.Fatalf("retransmission of pre-kill get: %v", err)
	}
	if string(replay) != "before-crash" {
		for s := 0; s < cluster.Topo.ShardCount(); s++ {
			t.Logf("shard %d: active instance %d, %d switches", s, v.Client.ActiveInstance(s), v.Client.Switches(s))
		}
		dumpLogs(t, cluster)
		t.Fatalf("retransmitted get returned %q, want the cached %q", replay, "before-crash")
	}

	// Fresh reads still see the latest committed state.
	got, _, err := v.Get(ctx, "canary")
	if err != nil {
		t.Fatalf("post-restart get: %v", err)
	}
	if got != "after-restart" {
		t.Fatalf("post-restart get returned %q, want %q", got, "after-restart")
	}

	// Stitched-trace acceptance: the post-restart traffic above was
	// head-sampled, so scraping the recovered cluster and stitching with the
	// verifier's ring must yield a single trace ID that crossed from the
	// client into at least two replica processes and covered the full request
	// lifecycle — send (client), order (primary), execute, merge, and the
	// reply point event.
	dumps := scrapeCluster(cluster)
	dumps = append(dumps, obsctl.ProcessDump{Addr: "in-test", Process: "verifier-90", Traces: spans.Dump()})
	traces := obsctl.Stitch(dumps)
	stages := []string{"send", "order", "execute", "merge", "reply"}
	var full *obsctl.Trace
	for _, tr := range traces {
		if !tr.Covers(3) {
			continue
		}
		ok := true
		for _, s := range stages {
			if !tr.HasStage(s) {
				ok = false
				break
			}
		}
		if ok {
			full = tr
			break
		}
	}
	if full == nil {
		var b strings.Builder
		obsctl.WriteTraces(&b, traces, 10)
		dumpLogs(t, cluster)
		t.Fatalf("no stitched trace covers 3+ processes with stages %v:\n%s", stages, b.String())
	}
}
