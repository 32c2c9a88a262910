package bench

// MetricDecl declares one reported metric. The lists below are the Go mirror
// of BENCHMARK.json (a test keeps the two equal).
type MetricDecl struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end metric
	// may get worse before a change is a regression (0 for per-layer
	// metrics, which have none).
	Bound float64
}

// EndToEnd is what a user of the system sees, the same names on every
// workload. Every bound is the contract's largest, 0.25: on the shared 2-vCPU
// boxes the benchmark runs on, ten 25 s runs of one commit spread by 2-14 %
// (IQR over median) on these metrics, and no statistic of a single run gets
// below that (README, Steadiness). latency_p99_ms and cpu_us_per_req spread by
// up to 21 % there and are per-layer metrics for that reason; the tail is
// gated through latency_tail_ratio, which repeats twice as closely because
// p99 and p50 of one window scale with the machine together. Failed
// invocations are the run's failed/attempted counts, not a metric: the rate
// is 0 on every healthy run.
var EndToEnd = []MetricDecl{
	{"throughput_rps", "req/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ratio", "ratio", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer is measured in a separate traced run and by the isolated layer
// probes; the prefix of a name is the package the number belongs to. A layer
// a workload does not have reports 0.
var PerLayer = []MetricDecl{
	// Traced window: spans joined by trace ID.
	{"core.send_ms_p50", "ms", "lower", 0},
	{"core.send_ms_p99", "ms", "lower", 0},
	{"host.assemble_ms_p50", "ms", "lower", 0},
	{"host.order_ms_p50", "ms", "lower", 0},
	{"host.execute_ms_p50", "ms", "lower", 0},
	{"trace.residual_ms_p50", "ms", "lower", 0},
	{"shard.merge_ms_p50", "ms", "lower", 0},
	{"shard.merge_lag_max", "count", "lower", 0},
	{"shard.merge_rounds_per_s", "1/s", "higher", 0},
	// Traced window: registry, Local.Stats and TCP endpoint counters.
	{"host.batch_fill_mean", "count", "higher", 0},
	{"host.batches_per_s", "1/s", "lower", 0},
	{"host.checkpoints_per_kreq", "count", "lower", 0},
	{"transport.msgs_per_req", "count", "lower", 0},
	{"transport.bytes_per_req", "B", "lower", 0},
	{"transport.flushes_per_req", "count", "lower", 0},
	{"transport.bytes_per_flush", "B", "higher", 0},
	{"authn.mac_ops_per_req", "count", "lower", 0},
	{"compose.switches", "count", "lower", 0},
	{"compose.aborts", "count", "lower", 0},
	// Untraced half of the traced run.
	{"core.latency_p99_ms", "ms", "lower", 0},
	{"runtime.cpu_us_per_req", "us", "lower", 0},
	{"runtime.allocs_per_req", "count", "lower", 0},
	{"runtime.alloc_kb_per_req", "kB", "lower", 0},
	{"runtime.gc_pause_ms_per_s", "ms/s", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	// Isolated layer probes: fixed-count loops timing exported calls.
	{"wirecodec.encode_order16_ns", "ns", "lower", 0},
	{"wirecodec.decode_order16_ns", "ns", "lower", 0},
	{"wirecodec.decode_order16_allocs", "count", "lower", 0},
	{"wirecodec.order16_bytes", "B", "lower", 0},
	{"wirecodec.encode_req4k_ns", "ns", "lower", 0},
	{"wirecodec.decode_req4k_ns", "ns", "lower", 0},
	{"authn.authenticator4_64b_ns", "ns", "lower", 0},
	{"authn.authenticator4_4k_ns", "ns", "lower", 0},
	{"authn.mac_verify_ns", "ns", "lower", 0},
	{"authn.hash_4k_ns", "ns", "lower", 0},
	{"transport.local_rtt_us_p50", "us", "lower", 0},
	{"transport.tcp_rtt_us_p50", "us", "lower", 0},
	{"transport.tcp_stream_msgs_per_s", "1/s", "higher", 0},
	{"host.batcher_idle_flush_ms", "ms", "lower", 0},
	{"host.logexec_batch16_ns_per_req", "ns", "lower", 0},
	{"history.digest_step_ns", "ns", "lower", 0},
	{"app.kv_put_ns", "ns", "lower", 0},
	{"app.kv_snapshot_1k_us", "us", "lower", 0},
	{"shard.executor_merge_ns_per_req", "ns", "lower", 0},
	{"statesync.snapshot_build_1k_us", "us", "lower", 0},
}
