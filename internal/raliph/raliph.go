package raliph

import (
	"context"
	"sync"
	"time"

	"abstractbft/internal/aardvark"
	"abstractbft/internal/compose"
	"abstractbft/internal/core"
	"abstractbft/internal/deploy"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// Options configures R-Aliph.
type Options struct {
	// Monitor tunes throughput/fairness monitoring.
	Monitor MonitorConfig
	// Aardvark tunes the Backup orderer's primary monitoring.
	Aardvark aardvark.MonitorConfig
	// MaxUncheckpointed bounds the uncheckpointed history per replica
	// (Principle P4); the paper's prototype uses 384.
	MaxUncheckpointed int
	// SwitchTimeout bounds a replica-initiated switch attempt.
	SwitchTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxUncheckpointed <= 0 {
		o.MaxUncheckpointed = 384
	}
	if o.SwitchTimeout <= 0 {
		o.SwitchTimeout = 5 * time.Second
	}
	return o
}

// Registry wires the per-replica monitors and switchers of an R-Aliph
// deployment. Create it first, pass its hooks into deploy.Config, then call
// Bind on the running cluster.
type Registry struct {
	opts Options
	comp *compose.Composition

	mu        sync.Mutex
	monitors  map[ids.ProcessID]*Monitor
	switchers map[ids.ProcessID]*switcher
}

// NewRegistry creates an empty registry.
func NewRegistry(opts Options) *Registry {
	r := &Registry{
		opts:      opts.withDefaults(),
		monitors:  make(map[ids.ProcessID]*Monitor),
		switchers: make(map[ids.ProcessID]*switcher),
	}
	r.comp = r.composition()
	return r
}

// composition compiles R-Aliph as a declarative value: Aliph's schedule with
// the feedback sink dispatching to per-replica monitors, Aardvark as the
// strong stages' orderer, and every protocol replica wrapped so the monitor
// is driven from its tick. The speculative flag (Quorum, Chain) falls out of
// the descriptor's progress predicate instead of a hardcoded role map.
func (r *Registry) composition() *compose.Composition {
	return compose.MustNew("aliph", compose.Options{
		Feedback: &dispatchingSink{registry: r},
		// Backup's batch size and view-change timeout are the composition's
		// defaults; the Aardvark orderer runs with the same values.
		Orderer: aardvark.Orderer(compose.DefaultBatchSize, compose.DefaultViewChangeTimeout, r.opts.Aardvark,
			func(inst core.InstanceID, src aardvark.ExpectationSource) {
				// Register the Aardvark expectation with every monitor; each
				// replica only runs one orderer per Backup instance, so the
				// registration reaches the right monitor through its host.
				r.mu.Lock()
				defer r.mu.Unlock()
				for _, m := range r.monitors {
					m.RegisterExpectation(inst, src)
				}
			}),
		WrapReplica: func(inner host.ProtocolReplica, h *host.Host, st *host.InstanceState, d *compose.Descriptor) host.ProtocolReplica {
			return &monitoredReplica{
				inner:       inner,
				monitor:     r.MonitorFor(h.ID()),
				instance:    st.ID,
				speculative: !d.Strong(),
			}
		},
	})
}

// Observer implements the deploy.Config.Observer hook: it creates (or
// returns) the monitor of the given replica.
func (r *Registry) Observer(rep ids.ProcessID, h *host.Host) host.Observer {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.monitors[rep]
	if !ok {
		m = NewMonitor(r.opts.Monitor)
		r.monitors[rep] = m
	}
	m.Attach(h, r.switchers[rep])
	return m
}

// MonitorFor returns the monitor of a replica (nil if unknown).
func (r *Registry) MonitorFor(rep ids.ProcessID) *Monitor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.monitors[rep]
}

// SwitchDurations returns the most recent replica-initiated switch duration
// per replica (Table V).
func (r *Registry) SwitchDurations() map[ids.ProcessID]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[ids.ProcessID]time.Duration, len(r.switchers))
	for rep, sw := range r.switchers {
		out[rep] = sw.LastSwitchDuration()
	}
	return out
}

// dispatchingSink forwards feedback to the monitor of the replica that
// received it.
type dispatchingSink struct {
	registry *Registry
}

// ClientFeedback implements host.FeedbackSink.
func (d *dispatchingSink) ClientFeedback(replica ids.ProcessID, client ids.ProcessID, committed []uint64, issued []uint64) {
	if m := d.registry.MonitorFor(replica); m != nil {
		m.ClientFeedback(replica, client, committed, issued)
	}
}

// monitoredReplica wraps a role replica, driving the R-Aliph monitor from the
// protocol tick and delegating everything else.
type monitoredReplica struct {
	inner       host.ProtocolReplica
	monitor     *Monitor
	instance    core.InstanceID
	speculative bool
}

// Handle implements host.ProtocolReplica.
func (m *monitoredReplica) Handle(from ids.ProcessID, payload any) { m.inner.Handle(from, payload) }

// ProtocolTick implements host.Ticker.
func (m *monitoredReplica) ProtocolTick() {
	if t, ok := m.inner.(host.Ticker); ok {
		t.ProtocolTick()
	}
	if m.monitor != nil {
		m.monitor.Tick(m.instance, m.speculative)
	}
}

// StopOnPanic forwards Backup's panic resistance.
func (m *monitoredReplica) StopOnPanic() bool {
	if p, ok := m.inner.(host.PanicResistant); ok {
		return p.StopOnPanic()
	}
	return true
}

// InstanceFactory returns the client-side factory: the composition's
// instances wrapped so that commit feedback is piggybacked on the
// feedback-capable stages (Quorum, Chain).
func (r *Registry) InstanceFactory(env core.ClientEnv) core.InstanceFactory {
	fb := &clientFeedback{every: r.opts.Monitor.withDefaults().FeedbackEvery}
	base := r.comp.InstanceFactory(env)
	return func(id core.InstanceID) (core.Instance, error) {
		inner, err := base(id)
		if err != nil {
			return nil, err
		}
		return &feedbackInstance{inner: inner, fb: fb}, nil
	}
}

// NewClient creates an R-Aliph client.
func (r *Registry) NewClient(env core.ClientEnv) (*core.Composer, error) {
	return core.NewComposer(r.InstanceFactory(env), 1)
}

// clientFeedback accumulates committed request timestamps to piggyback on the
// next requests.
type clientFeedback struct {
	mu      sync.Mutex
	pending []uint64
	every   int
	count   int
}

func (f *clientFeedback) recordCommit(ts uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if f.every <= 1 || f.count%f.every == 0 {
		f.pending = append(f.pending, ts)
	}
}

func (f *clientFeedback) take() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.pending
	f.pending = nil
	return out
}

// feedbackInstance wraps an Aliph instance client, attaching feedback to
// Quorum and Chain invocations and recording commits.
type feedbackInstance struct {
	inner core.Instance
	fb    *clientFeedback
}

// ID implements core.Instance.
func (f *feedbackInstance) ID() core.InstanceID { return f.inner.ID() }

// Invoke implements core.Instance.
func (f *feedbackInstance) Invoke(ctx context.Context, req msg.Request, init *core.InitHistory) (core.Outcome, error) {
	if fc, ok := f.inner.(core.FeedbackCarrier); ok {
		fc.SetPendingFeedback(f.fb.take())
	}
	out, err := f.inner.Invoke(ctx, req, init)
	if err == nil && out.Committed {
		f.fb.recordCommit(req.Timestamp)
	}
	return out, err
}

// Bind attaches switchers (replica-as-client endpoints) to a running cluster
// built through deploy.New; it must be called before traffic that could
// require replica-initiated switching.
func (r *Registry) Bind(c *deploy.Cluster) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, h := range c.Hosts {
		rep := ids.Replica(i)
		ep := c.Net.Endpoint(SwitcherClientID(rep))
		sw := newSwitcher(h, r.comp, c.Keys, ep, 25*time.Millisecond, r.opts.SwitchTimeout)
		r.switchers[rep] = sw
		if m := r.monitors[rep]; m != nil {
			m.Attach(h, sw)
		}
	}
}

// Deploy builds a complete in-process R-Aliph cluster: it creates the
// registry, deploys the registry's compiled composition, and binds the
// switchers. R-Aliph clients, which piggyback feedback, come from
// Registry.NewClient.
func Deploy(cfg deploy.Config, opts Options) (*deploy.Cluster, *Registry, error) {
	reg := NewRegistry(opts)
	cfg.Composition = reg.comp
	cfg.Observer = reg.Observer
	if cfg.MaxUncheckpointed == 0 {
		cfg.MaxUncheckpointed = opts.withDefaults().MaxUncheckpointed
	}
	cluster, err := deploy.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	reg.Bind(cluster)
	return cluster, reg, nil
}
