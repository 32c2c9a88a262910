package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"abstractbft/internal/obs"
	"abstractbft/internal/transport"
)

// obsReading is one reading of everything the traced run can see from
// outside: registry series summed over replicas (and endpoints), and the
// Local network's delivery counters.
type obsReading struct {
	counters map[string]uint64 // full series key -> sum
	histSum  map[string]float64
	histCnt  map[string]uint64
	// msgs is Local.Stats' delivered count, bytes the wire size of what was
	// sent on the Local network (both zero on TCP).
	msgs, bytes uint64
}

func readObs(o *planeObs, local *transport.Local) obsReading {
	r := obsReading{counters: map[string]uint64{}, histSum: map[string]float64{}, histCnt: map[string]uint64{}}
	for _, reg := range append(append([]*obs.Registry(nil), o.replicaRegs...), o.endpointRegs...) {
		snap := reg.Snapshot()
		for k, v := range snap.Counters {
			r.counters[k] += v
		}
		for k, h := range snap.Histograms {
			r.histSum[k] += h.Sum
			r.histCnt[k] += h.Count
		}
	}
	if local != nil {
		r.msgs, _ = local.Stats()
		r.bytes = o.localBytes.Load()
	}
	return r
}

// inFamily reports whether the series key belongs to the metric family name
// (under any label set).
func inFamily(key, name string) bool {
	return key == name || strings.HasPrefix(key, name+"{")
}

// family sums every series of a metric family.
func family(m map[string]uint64, name string) uint64 {
	var n uint64
	for k, v := range m {
		if inFamily(k, name) {
			n += v
		}
	}
	return n
}

// watchMergeLag polls the executors' shard_merge_lag gauges (scrape-time
// gauges, so they have to be polled) until the returned function is called,
// which stops the polling and returns the largest value seen.
func watchMergeLag(o *planeObs) (stop func() float64) {
	quit, done := make(chan struct{}), make(chan struct{})
	var max float64
	go func() {
		defer close(done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				for _, reg := range o.replicaRegs {
					for k, v := range reg.Snapshot().Gauges {
						if inFamily(k, "shard_merge_lag") && v > max {
							max = v
						}
					}
				}
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return max
	}
}

// runPerLayer is the traced protocol: an untraced half on a fresh cluster
// (allocator counters, overhead base), a traced half on another (spans,
// registries), then the isolated layer probes. Output checks run on both
// clusters.
func runPerLayer(ctx context.Context, o Options, res *Result) error {
	window, n := windowsIn(o.Seconds / 2)
	layer := make(map[string]float64, len(PerLayer))
	// whole is the single window spanning a half's first and last mark.
	whole := func(lg *loadgen, marks []mark) WindowStat {
		return lg.windows([]mark{marks[0], marks[n]})[0]
	}

	// Untraced half.
	s, err := openSession(ctx, o, false)
	if err != nil {
		return err
	}
	var mem [2]memCounters
	marks := s.lg.measure(o.settle(), window, n, func(i int) {
		if i == 0 || i == n {
			mem[i/n] = readMem()
		}
	})
	s.finish(ctx, res, true)
	untraced := whole(s.lg, marks)
	res.UntracedWindow = &untraced
	// The two windowed metrics that spread too widely between runs to carry a
	// bound, by the same rule as the end-to-end ones.
	untracedWindows := s.lg.windows(marks)
	layer["core.latency_p99_ms"] = overWindows(untracedWindows, perWindow["latency_p99_ms"], false).Value
	layer["runtime.cpu_us_per_req"] = overWindows(untracedWindows, perWindow["cpu_us_per_req"], false).Value
	untracedRPS := overWindows(untracedWindows, perWindow["throughput_rps"], true).Value
	if n := float64(untraced.Committed); n > 0 {
		layer["runtime.allocs_per_req"] = float64(mem[1].mallocs-mem[0].mallocs) / n
		layer["runtime.alloc_kb_per_req"] = float64(mem[1].bytes-mem[0].bytes) / 1024 / n
	}
	if untraced.Seconds > 0 {
		layer["runtime.gc_pause_ms_per_s"] = float64(mem[1].pauseNs-mem[0].pauseNs) / 1e6 / untraced.Seconds
	}

	// Traced half.
	if s, err = openSession(ctx, o, true); err != nil {
		return err
	}
	var readings [2]obsReading
	stopLag := watchMergeLag(s.p.obs)
	marks = s.lg.measure(o.settle(), window, n, func(i int) {
		if i == 0 || i == n {
			readings[i/n] = readObs(s.p.obs, s.p.local)
		}
	})
	lagMax := stopLag()
	s.finish(ctx, res, true)
	final := readObs(s.p.obs, s.p.local)
	// Only requests that completed inside the traced window enter the budget,
	// so it is comparable with that window's all-request latency.
	lo, hi := s.lg.epoch.UnixNano()+marks[0].at, s.lg.epoch.UnixNano()+marks[n].at
	var roots []Span
	for _, st := range s.lg.streams {
		for _, r := range st.roots {
			if r.EndNs >= lo && r.EndNs < hi {
				roots = append(roots, r)
			}
		}
	}
	spans := collectSpans(roots, s.p.obs.rings)
	traced := whole(s.lg, marks)
	res.TracedWindow = &traced

	// Guards read over the traced cluster's whole life, not just the window.
	layer["compose.switches"] = float64(family(final.counters, "compose_switches_total"))
	layer["compose.aborts"] = float64(family(final.counters, "compose_aborts_total"))
	if layer["compose.switches"] != 0 || layer["compose.aborts"] != 0 {
		res.Correct = false
		res.CheckErrors = append(res.CheckErrors, fmt.Sprintf("traced replicas report %v instance switches and %v aborts, want 0",
			layer["compose.switches"], layer["compose.aborts"]))
	}

	// Window deltas of the counters.
	delta := func(name string) float64 {
		return float64(family(readings[1].counters, name) - family(readings[0].counters, name))
	}
	if n := float64(traced.Committed); n > 0 {
		layer["authn.mac_ops_per_req"] = delta("authn_mac_ops_total") / n
		layer["host.checkpoints_per_kreq"] = delta("host_checkpoints_total") / replicas / (n / 1000)
		if o.Workload.TCP {
			frames := delta(`transport_frames_total{dir="out"}`)
			bytes := delta(`transport_bytes_total{dir="out"}`)
			flushes := delta("transport_flushes_total")
			layer["transport.msgs_per_req"] = frames / n
			layer["transport.bytes_per_req"] = bytes / n
			layer["transport.flushes_per_req"] = flushes / n
			if flushes > 0 {
				layer["transport.bytes_per_flush"] = bytes / flushes
			}
		} else {
			layer["transport.msgs_per_req"] = float64(readings[1].msgs-readings[0].msgs) / n
			layer["transport.bytes_per_req"] = float64(readings[1].bytes-readings[0].bytes) / n
		}
	}
	var fillSum float64
	var fillCnt uint64
	for k := range readings[1].histCnt {
		if inFamily(k, "host_batch_fill") {
			fillSum += readings[1].histSum[k] - readings[0].histSum[k]
			fillCnt += readings[1].histCnt[k] - readings[0].histCnt[k]
		}
	}
	if fillCnt > 0 {
		layer["host.batch_fill_mean"] = fillSum / float64(fillCnt)
	}
	if traced.Seconds > 0 {
		layer["host.batches_per_s"] = float64(fillCnt) / traced.Seconds
		layer["shard.merge_rounds_per_s"] = delta("shard_merge_rounds_total") / replicas / traced.Seconds
	}
	layer["shard.merge_lag_max"] = lagMax
	// The halves run one after the other on a machine whose speed drifts, so
	// the overhead compares their good-side decile windows, not their means.
	if tracedRPS := overWindows(s.lg.windows(marks), perWindow["throughput_rps"], true).Value; untracedRPS > 0 {
		layer["trace.overhead_pct"] = (untracedRPS - tracedRPS) / untracedRPS * 100
	}

	// The budget comes from the exported spans alone.
	tf := TraceFile{Workload: o.Workload.Name, Seed: o.Seed, SampleEvery: traceEvery, Spans: spans}
	if o.OutDir != "" {
		if err := WriteTraceFile(filepath.Join(o.OutDir, o.Workload.Name+".trace.json"), tf); err != nil {
			return err
		}
	}
	b := ComputeBudget(tf.Spans)
	layer["core.send_ms_p50"] = ms(b.Send.P50())
	layer["core.send_ms_p99"] = ms(b.Send.P99())
	layer["host.assemble_ms_p50"] = ms(b.Assemble.P50())
	layer["host.order_ms_p50"] = ms(b.Order.P50())
	layer["host.execute_ms_p50"] = ms(b.Execute.P50())
	layer["trace.residual_ms_p50"] = ms(b.Residual.P50())
	layer["shard.merge_ms_p50"] = ms(b.Merge.P50())
	res.BudgetRow = b.Row()

	// Isolated layer probes.
	for name, v := range RunProbes(o.Seed, o.Quick) {
		layer[name] = v
	}

	res.PerLayer = make(map[string]Metric, len(PerLayer))
	for _, d := range PerLayer {
		res.PerLayer[d.Name] = Metric{Value: layer[d.Name], Unit: d.Unit}
	}

	fmt.Fprintf(o.Log, "per-layer (untraced half %.2f s at %.0f req/s; traced half %.2f s at %.0f req/s, 1 in %d sampled):\n",
		untraced.Seconds, untraced.ThroughputRPS, traced.Seconds, traced.ThroughputRPS, traceEvery)
	fmt.Fprintf(o.Log, "  %s\n", res.BudgetRow)
	fmt.Fprintf(o.Log, "  sampled core.send p50 %.4f ms vs all-request p50 %.4f ms of the same window (%+.1f %%)\n",
		ms(b.Send.P50()), traced.P50Ms, pctDiff(ms(b.Send.P50()), traced.P50Ms))
	for _, d := range PerLayer {
		fmt.Fprintf(o.Log, "  %-34s %14.4f %s\n", d.Name, layer[d.Name], d.Unit)
	}
	return nil
}

func pctDiff(a, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (a - base) / base * 100
}

// memCounters are the runtime.MemStats fields the runtime.* metrics are
// deltas of.
type memCounters struct {
	mallocs, bytes, pauseNs uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNs: m.PauseTotalNs}
}
