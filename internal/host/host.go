// Package host implements the replica-side runtime shared by all Abstract
// instance implementations (ZLight, Quorum, Chain, Backup): per-instance
// replica state (local histories, client timestamps, sequence numbers), the
// panicking/aborting subprotocol (§4.2.2), instance initialization from init
// histories (§4.2.3), the lightweight checkpoint subprotocol (§4.2.4), and
// the state-transfer optimization with inter-replica fetching of missing
// requests (§4.4).
//
// A Host runs one replica of a composed protocol. Protocol packages plug in a
// ProtocolFactory that creates, per Abstract instance, the message handler
// implementing that instance's common-case steps; the Host handles everything
// the instances share.
package host

import (
	"log"
	"sync"
	"sync/atomic"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
	"abstractbft/internal/statesync"
	"abstractbft/internal/transport"
)

// ProtocolReplica is the per-instance message handler provided by a protocol
// package (the common-case steps of ZLight, Quorum, Chain, or Backup).
type ProtocolReplica interface {
	// Handle processes one protocol-specific message addressed to this
	// instance. It is called from the host's single event loop, so
	// implementations need no internal locking for instance state.
	//
	//abstractbft:lockheld
	Handle(from ids.ProcessID, m any)
}

// ProtocolFactory creates the protocol replica for a newly activated
// instance. The returned value handles all messages that are not part of the
// shared Abstract machinery.
type ProtocolFactory func(h *Host, st *InstanceState) ProtocolReplica

// Ticker is implemented by protocol replicas that need periodic time-based
// processing (for example Backup's view-change timers); the host calls
// ProtocolTick from its event loop at the configured tick interval.
type Ticker interface {
	//abstractbft:lockheld
	ProtocolTick()
}

// Observer receives the requests an instance's history gains, the history
// resets a switch causes and the checkpoints that become stable, in the
// order the host makes them; the sharded plane's execution feed is its one
// implementation.
type Observer interface {
	// RequestLogged is called for each request appended to the local history
	// of an instance, whether logged by the instance or adopted from an init
	// history (then only for entries whose body is known, in history order);
	// pos is the absolute position. An adopted entry the replica never logged
	// (a missed ORDER before a switch) would otherwise leave a permanent gap
	// in the feed.
	//
	//abstractbft:lockheld
	RequestLogged(inst core.InstanceID, req msg.Request, pos uint64)
	// HistoryReset is called when instance inst replaces its history
	// wholesale (adopting an init history at a switch) starting at absolute
	// position baseSeq, before the adopted entries are replayed, so the feed
	// can drop buffered speculative entries the adoption rolled back.
	//
	//abstractbft:lockheld
	HistoryReset(inst core.InstanceID, baseSeq uint64)
	// CheckpointStable is called when instance inst's checkpoint at absolute
	// position seq becomes stable: every replica logged the same history
	// below seq, so no later reset replaces it.
	//
	//abstractbft:lockheld
	CheckpointStable(inst core.InstanceID, seq uint64)
}

// Config configures a replica host.
type Config struct {
	// Cluster describes the replica group.
	Cluster ids.Cluster
	// Replica is this replica's identifier.
	Replica ids.ProcessID
	// Keys is the cryptographic key store.
	Keys *authn.KeyStore
	// App is the replicated application executed by this replica.
	App app.Application
	// Endpoint attaches the replica to the network.
	Endpoint transport.Endpoint
	// NewProtocol creates protocol replicas per instance.
	NewProtocol ProtocolFactory
	// Batch configures the request batch assembler used by ordering replicas
	// (ZLight's primary, Chain's head). The zero value selects the defaults
	// (MaxBatch 16, MaxDelay 1ms); MaxBatch=1 disables batching and restores
	// the per-request path.
	Batch BatchPolicy
	// CheckpointInterval is CHK; 0 selects the default (128).
	CheckpointInterval int
	// RetainFloor, when non-nil, bounds garbage collection from below: the
	// host never trims storage (or prunes snapshots) at or above the
	// returned position even when a stable checkpoint covers it. The sharded
	// plane points it at the merged mirror's consumed position, so a
	// recovering node can always fetch a snapshot aligned with the mirror it
	// restores — the mirror legitimately trails the per-shard checkpoints.
	// Called under the host lock; it must not call back into the host.
	//
	//abstractbft:lockheld
	RetainFloor func() uint64
	// InstrumentHistories makes RESP messages carry full digest histories so
	// the specification checker can validate runs (tests only). It also turns
	// garbage collection off, since the checker needs full histories.
	InstrumentHistories bool
	// TickInterval is the period of the host's protocol tick (driving
	// time-based protocol behaviour such as view-change timers); 0 selects
	// 20ms.
	TickInterval time.Duration
	// Logger, when non-nil, receives debug output.
	Logger *log.Logger
	// Metrics, when non-nil, receives the host's runtime metrics (ordering,
	// execution, checkpoint/GC, statesync, and composition series). Nil keeps
	// every record a no-op.
	Metrics *obs.Registry
	// MetricsLabels are label pairs baked into every host-registered series;
	// the sharded plane labels each sub-host by shard so their series stay
	// distinguishable in a shared registry.
	MetricsLabels []string
	// Tracer, when non-nil, records per-stage durations (batch assembly,
	// ordering, execution) for requests carrying a wire-propagated trace
	// context — and, when the tracer has a span ring, the spans themselves.
	// The sampling decision is the client's (head sampling); the host never
	// samples on its own.
	Tracer *obs.Tracer
	// Shard labels this host's spans and flight events in the sharded plane
	// (0 for unsharded deployments).
	Shard int
	// Flight, when non-nil, receives the host's protocol flight-recorder
	// events: instance switches with the abort reporter set, aborts,
	// checkpoints, GC runs, and state-transfer phases.
	Flight *obs.Flight
	// ProtocolName, when non-nil, names the protocol of an instance for the
	// compose_active_protocol gauge (wired from the composition's schedule;
	// called under the host lock).
	//
	//abstractbft:lockheld
	ProtocolName func(core.InstanceID) string
}

// Host is one replica of a composed Abstract protocol.
type Host struct {
	cfg     Config
	cluster ids.Cluster
	id      ids.ProcessID
	keys    *authn.KeyStore
	ep      transport.Endpoint

	mu sync.Mutex
	// instances holds the state of every instance this replica has
	// participated in, keyed by instance number.
	instances map[core.InstanceID]*InstanceState
	protocols map[core.InstanceID]ProtocolReplica
	// active is the highest activated instance.
	active core.InstanceID

	// application execution state, which applyRequest advances and install
	// replaces. appliedDigs stores the digests of the applied requests from
	// position appliedTrim on (the prefix below it was garbage-collected once
	// a stable checkpoint covered it); appliedAcc is the digest chain fold
	// over the whole applied sequence, which snapshots record as their
	// history digest.
	application app.Application
	appliedSeq  uint64
	appliedDigs history.DigestHistory
	appliedTrim uint64
	// appliedSpare is the storage garbage collection moves appliedDigs'
	// retained suffix into (see trimFront).
	appliedSpare history.DigestHistory
	appliedAcc   authn.Digest
	// appliedWindows are the per-client timestamp windows of the applied
	// request sequence — a deterministic function of the applied prefix
	// (unlike the per-instance logging windows, which logging order can
	// skew), so the checkpoint snapshots that carry them agree across
	// replicas.
	appliedWindows map[ids.ProcessID]tsState
	lastReply      map[ids.ProcessID]*replyRing

	// requestStore maps request digests to stamped bodies across instances
	// (see keepBody). stamps queues every store in insertion order for
	// releaseBodies; stampSpare is the storage trimFront moves its rest into.
	requestStore map[authn.Digest]storedBody
	stamps       []bodyStamp
	stampSpare   []bodyStamp

	// snaps retains the applied state at recent checkpoint boundaries, which
	// FETCH-STATE answers and speculative rollbacks read; sync tracks an
	// in-flight state transfer.
	snaps *statesync.Store
	sync  *syncState

	observer Observer

	// met holds the host's metric series (always non-nil; no-op without a
	// registry). The trace* fields are the single-slot lifecycle trace state:
	// at most one sampled batch/request is in flight per stage, which keeps
	// tracing allocation-free. All are event-loop state under h.mu.
	met          *hostMetrics
	traceCtx     obs.TraceContext // context of the flushed sampled batch
	traceFlushT  time.Time        // a sampled batch was flushed, awaiting LogBatch
	traceExecCtx obs.TraceContext // context of the logged sampled batch
	traceExecT   time.Time        // a sampled request was logged, awaiting apply
	traceExecPos uint64           // applied seq at which the sampled request is applied
	traceExecOn  bool

	// stopping ends the event loop at its next envelope (Stop wakes it);
	// doneCh closes when the loop has returned.
	stopping atomic.Bool
	doneCh   chan struct{}
	started  atomic.Bool
}

// New creates a replica host. Start must be called to begin processing.
func New(cfg Config) *Host {
	h := &Host{
		cfg:            cfg,
		cluster:        cfg.Cluster,
		id:             cfg.Replica,
		keys:           cfg.Keys,
		ep:             cfg.Endpoint,
		instances:      make(map[core.InstanceID]*InstanceState),
		protocols:      make(map[core.InstanceID]ProtocolReplica),
		application:    cfg.App,
		appliedWindows: make(map[ids.ProcessID]tsState),
		lastReply:      make(map[ids.ProcessID]*replyRing),
		requestStore:   make(map[authn.Digest]storedBody),
		snaps:          statesync.NewStore(0),
		met:            newHostMetrics(cfg.Metrics, cfg.MetricsLabels),
		doneCh:         make(chan struct{}),
	}
	// Seq 0 is a boundary too, serialized at once: an application starts
	// out (nearly) empty.
	h.snaps.Add(statesync.Snapshot{AppState: cfg.App.Snapshot()})
	return h
}

// Start launches the host's event loop.
func (h *Host) Start() {
	h.started.Store(true)
	go h.run()
}

// Stop terminates the event loop. It is safe on a host that was never
// started (a crash-restart rejoin can fail before Start, and the node
// teardown must not block on an event loop that never ran) and on one
// already stopped.
func (h *Host) Stop() {
	h.stopping.Store(true)
	h.ep.Wake()
	if h.started.Load() {
		<-h.doneCh
	}
}

// ID returns the replica identifier.
func (h *Host) ID() ids.ProcessID { return h.id }

// Cluster returns the cluster configuration.
func (h *Host) Cluster() ids.Cluster { return h.cluster }

// Keys returns the key store.
func (h *Host) Keys() *authn.KeyStore { return h.keys }

// InstrumentedHistory returns the digests of st's local history from
// position 0, the commit history a reply carries for the specification
// checker: with InstrumentHistories, garbage collection is off, so the
// applied sequence names every position below the instance's base. It is
// nil otherwise, or when a state transfer left positions unnamed.
func (h *Host) InstrumentedHistory(st *InstanceState) history.DigestHistory {
	if !h.cfg.InstrumentHistories || h.appliedTrim > 0 || st.trimmed > 0 || h.appliedSeq < st.BaseSeq {
		return nil
	}
	out := make(history.DigestHistory, 0, st.AbsLen())
	out = append(out, h.appliedDigs[:st.BaseSeq]...)
	return append(out, st.Digests...)
}

// SetObserver installs an observer; it must be called before Start.
func (h *Host) SetObserver(o Observer) { h.observer = o }

// Send transmits a protocol message to another process.
func (h *Host) Send(to ids.ProcessID, m any) { h.ep.Send(to, m) }

// Multicast transmits a protocol message to several processes.
func (h *Host) Multicast(tos []ids.ProcessID, m any) { transport.Multicast(h.ep, tos, m) }

// SendBatch transmits several protocol messages to one process as a single
// coalesced wire envelope (for example the per-request replies of a batch).
func (h *Host) SendBatch(to ids.ProcessID, ms []any) { transport.SendBatch(h.ep, to, ms) }

// OtherReplicas returns the identifiers of all replicas except this one.
func (h *Host) OtherReplicas() []ids.ProcessID { return h.cluster.Others(h.id) }

func (h *Host) logf(format string, args ...any) {
	if h.cfg.Logger != nil {
		h.cfg.Logger.Printf("replica %v: "+format, append([]any{h.id}, args...)...)
	}
}

// run is the event loop. It blocks on the inbox alone: Stop and the tick
// set their flags and wake it there, and it checks both after every
// envelope, so a wake-up a full inbox dropped delays them by at most one
// envelope. A payload-free envelope is a wake-up — the loop's own, or
// another process's, which carries no authority — and is never dispatched.
func (h *Host) run() {
	defer close(h.doneCh)
	interval := h.cfg.TickInterval
	if interval <= 0 {
		interval = 20 * time.Millisecond
	}
	tick := transport.NewPulse(h.ep, interval)
	defer tick.Stop()
	for env := range h.ep.Inbox() {
		if h.stopping.Load() {
			return
		}
		if env.Payload != nil {
			h.dispatch(env)
		}
		if tick.Due() {
			h.tickProtocols()
		}
	}
}

// tickProtocols drives time-based behaviour of active protocol replicas.
func (h *Host) tickProtocols() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, proto := range h.protocols {
		st := h.instances[id]
		if st == nil || st.Stopped {
			continue
		}
		if t, ok := proto.(Ticker); ok {
			t.ProtocolTick()
		}
	}
	h.tickFetch()
	h.tickSync()
}

func (h *Host) dispatch(env transport.Envelope) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch env.Payload.(type) {
	case *core.CheckpointMessage, *core.FetchRequest, *core.FetchResponse, *statesync.FetchState, *statesync.State:
		// Replica-to-replica control: the vote or answer is the envelope
		// sender's, which the link authenticates, and no client takes part.
		if !env.From.IsReplica() {
			return
		}
	}
	switch m := env.Payload.(type) {
	case *core.InitMessage:
		h.handleInit(m)
	case *core.PanicMessage:
		h.handlePanic(env.From, m)
	case *core.CheckpointMessage:
		h.handleCheckpoint(env.From, m)
	case *core.FetchRequest:
		h.handleFetchRequest(env.From, m)
	case *core.FetchResponse:
		h.handleFetchResponse(m)
	case *statesync.FetchState:
		h.handleFetchState(env.From, m)
	case *statesync.State:
		h.handleState(env.From, m)
	default:
		h.routeProtocol(env.From, env.Payload)
	}
}

// maxHeld bounds the messages an instance holds while it fetches bodies.
const maxHeld = 1024

// routeProtocol delivers a protocol-specific message to the replica of the
// instance it belongs to. Such a message activates only FirstInstance; every
// later instance activates from its InitMessage.
func (h *Host) routeProtocol(from ids.ProcessID, payload any) {
	im, ok := payload.(core.InstanceMessage)
	if !ok {
		h.logf("dropping unknown message %T", payload)
		return
	}
	inst := im.AbstractInstance()
	st := h.instances[inst]
	if st == nil {
		st = h.activate(inst, nil)
	}
	if st == nil {
		return
	}
	if !st.Initialized {
		// Still fetching bodies: hold the message for finishInit, since a
		// dropped request or batch would stall the instance until a timer.
		if len(st.held) < maxHeld {
			st.held = append(st.held, transport.Envelope{From: from, Payload: payload})
		}
		return
	}
	proto := h.protocols[inst]
	if proto == nil {
		return
	}
	proto.Handle(from, payload)
}

// ActiveInstance returns the highest instance this replica has activated.
func (h *Host) ActiveInstance() core.InstanceID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.active
}

// Application returns a point-in-time snapshot of the replica's application
// (for test inspection): the clone is taken under the host lock so readers
// never race with the event loop's request execution.
func (h *Host) Application() app.Application {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.application.Clone()
}

// Bootstrap activates the host's first instance without any network traffic
// and returns its state: direct-drive benchmarks and tests log and execute
// against the instance through Locked without standing up a protocol.
func (h *Host) Bootstrap() *InstanceState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.activate(core.FirstInstance, nil)
}

// InstanceStateFor returns the state of the given instance (nil when the
// replica never activated it); exposed for tests and monitoring.
func (h *Host) InstanceStateFor(id core.InstanceID) *InstanceState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.instances[id]
}

// Locked runs fn while holding the host lock; protocol replicas handle
// messages under this lock already, but code running on its own goroutine
// (the Batcher's MaxDelay flush, direct-drive benchmarks) uses Locked to
// interact with instance state safely.
func (h *Host) Locked(fn func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fn()
}
