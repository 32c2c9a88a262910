package host

import (
	"abstractbft/internal/core"
	"abstractbft/internal/obs"
)

// hostMetrics bundles the host-layer series of the observability plane. It is
// always allocated; without a registry every field is a nil obs metric, whose
// record methods no-op, so the instrumented code paths never branch on
// "observability enabled". Registration is idempotent in the registry, so
// several hosts sharing one registry (the in-process multi-replica deploys)
// aggregate into the same series unless they bake in distinguishing labels
// (the sharded plane labels each sub-host by shard).
type hostMetrics struct {
	reg    *obs.Registry
	labels []string

	// ordering and execution.
	logged      *obs.Counter   // host_logged_requests_total
	batches     *obs.Counter   // host_batches_total
	batchFill   *obs.Histogram // host_batch_fill (requests per flushed batch)
	overshoot   *obs.Histogram // host_batch_deadline_overshoot_seconds (timer flush − first add − MaxDelay)
	appliedSeq  *obs.Gauge     // host_applied_seq
	windowStale *obs.Counter   // host_window_stale_total
	windowHits  *obs.Counter   // host_window_readmits_total
	appliedDups *obs.Counter   // host_applied_duplicates_total (fresh to the instance window, already applied)

	// checkpoint / GC plane.
	checkpoints *obs.Counter // host_checkpoints_total
	stableSeq   *obs.Gauge   // host_stable_checkpoint_seq
	gcRuns      *obs.Counter // host_gc_runs_total
	gcBodies    *obs.Counter // host_gc_released_bodies_total

	// composition plane.
	switches    *obs.Counter // compose_switches_total
	aborts      *obs.Counter // compose_aborts_total
	activeProto *obs.Gauge   // compose_active_protocol{proto="..."} (1 = active)

	// statesync plane.
	ssStarted  *obs.Counter // statesync_transfers_started_total
	ssAdopted  *obs.Counter // statesync_transfers_adopted_total
	ssRetries  *obs.Counter // statesync_retries_total
	ssServed   *obs.Counter // statesync_transfers_served_total
	ssBytesOut *obs.Counter // statesync_bytes_shipped_total
	ssBytesIn  *obs.Counter // statesync_bytes_adopted_total
}

// overshootBuckets resolve how late a timer flush cuts its batch (wake-up of
// the delay timer plus the wait for the host lock): ~0.1 ms on a timerfd,
// 0.1–1 ms on a runtime timer. obs.LatencyBuckets start where this ends.
var overshootBuckets = []float64{0.000025, 0.00005, 0.0001, 0.00015, 0.0002, 0.0003, 0.0005, 0.00075, 0.001, 0.0025, 0.01}

// newHostMetrics registers the host series (no-op metrics when r is nil).
func newHostMetrics(r *obs.Registry, labels []string) *hostMetrics {
	m := &hostMetrics{reg: r, labels: labels}
	if r == nil {
		return m
	}
	l := labels
	m.logged = r.Counter("host_logged_requests_total", l...)
	m.batches = r.Counter("host_batches_total", l...)
	m.batchFill = r.Histogram("host_batch_fill", obs.CountBuckets, l...)
	m.overshoot = r.Histogram("host_batch_deadline_overshoot_seconds", overshootBuckets, l...)
	m.appliedSeq = r.Gauge("host_applied_seq", l...)
	m.windowStale = r.Counter("host_window_stale_total", l...)
	m.windowHits = r.Counter("host_window_readmits_total", l...)
	m.appliedDups = r.Counter("host_applied_duplicates_total", l...)
	m.checkpoints = r.Counter("host_checkpoints_total", l...)
	m.stableSeq = r.Gauge("host_stable_checkpoint_seq", l...)
	m.gcRuns = r.Counter("host_gc_runs_total", l...)
	m.gcBodies = r.Counter("host_gc_released_bodies_total", l...)
	m.switches = r.Counter("compose_switches_total", l...)
	m.aborts = r.Counter("compose_aborts_total", l...)
	m.ssStarted = r.Counter("statesync_transfers_started_total", l...)
	m.ssAdopted = r.Counter("statesync_transfers_adopted_total", l...)
	m.ssRetries = r.Counter("statesync_retries_total", l...)
	m.ssServed = r.Counter("statesync_transfers_served_total", l...)
	m.ssBytesOut = r.Counter("statesync_bytes_shipped_total", l...)
	m.ssBytesIn = r.Counter("statesync_bytes_adopted_total", l...)
	return m
}

// noteActivated flips the compose_active_protocol gauge to the protocol of
// the newly activated instance: the old protocol's series drops to 0, the new
// one rises to 1 (registered lazily per protocol name — switches are rare, so
// the registry lock here costs nothing on the hot path). Called under the
// host lock at instance activation.
func (h *Host) noteActivated(id core.InstanceID) {
	if h.met.reg == nil || h.cfg.ProtocolName == nil {
		return
	}
	name := h.cfg.ProtocolName(id)
	if name == "" {
		return
	}
	labels := append(append([]string(nil), h.met.labels...), "proto", name)
	g := h.met.reg.Gauge("compose_active_protocol", labels...)
	if h.met.activeProto != nil && h.met.activeProto != g {
		h.met.activeProto.Set(0)
	}
	g.Set(1)
	h.met.activeProto = g
}
