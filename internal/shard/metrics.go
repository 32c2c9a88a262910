package shard

import (
	"strconv"

	"abstractbft/internal/obs"
)

// execMetrics bundles the execution-stage series: merged-sequence progress,
// per-shard merged throughput, Mencius null-op fills, and (via scrape-time
// gauges registered in newExecMetrics) each shard's merge lag and
// out-of-order backlog. All fields are nil obs metrics when the plane is
// uninstrumented, so the merge loop records unconditionally.
type execMetrics struct {
	mergedSeq *obs.Gauge     // shard_merged_seq
	rounds    *obs.Counter   // shard_merge_rounds_total
	nullOps   *obs.Counter   // shard_nullops_merged_total
	merged    []*obs.Counter // shard_merged_requests_total{shard="s"}
	reagreed  *obs.Counter   // shard_reagreements_total
}

// shardLabel renders the per-shard label pair once, at registration time.
func shardLabel(s int) []string { return []string{"shard", strconv.Itoa(s)} }

// newExecMetrics registers the execution-stage series and the scrape-time
// progress gauges over e's published (stateMu-guarded) views.
func newExecMetrics(r *obs.Registry, e *Executor) *execMetrics {
	m := &execMetrics{}
	if r == nil {
		return m
	}
	m.mergedSeq = r.Gauge("shard_merged_seq")
	m.rounds = r.Counter("shard_merge_rounds_total")
	m.nullOps = r.Counter("shard_nullops_merged_total")
	m.reagreed = r.Counter("shard_reagreements_total")
	for s := 0; s < e.shards; s++ {
		s := s
		m.merged = append(m.merged, r.Counter("shard_merged_requests_total", shardLabel(s)...))
		// Merge lag: in-order ordered positions of the shard not yet merged
		// (waiting on slower shards' epochs).
		r.GaugeFunc("shard_merge_lag", func() float64 {
			e.stateMu.Lock()
			defer e.stateMu.Unlock()
			// inOrder is published after a wake-up's merges, so it can
			// briefly trail the merged position.
			return max(0, float64(e.inOrder[s])-float64(e.rounds*uint64(e.epoch)))
		}, shardLabel(s)...)
		// Epoch backlog: buffered out-of-order entries awaiting their
		// predecessors.
		r.GaugeFunc("shard_ooo_backlog", func() float64 {
			e.stateMu.Lock()
			defer e.stateMu.Unlock()
			return float64(e.oooView[s])
		}, shardLabel(s)...)
	}
	return m
}
