package compose

import (
	"fmt"
	"time"

	"abstractbft/internal/core"
	"abstractbft/internal/host"
)

// Options tunes the constituent instances of a composition. Each knob is
// consumed only by the stages it applies to (LowLoadAfter by low-load-capable
// stages, ViewChangeTimeout by strong stages), so one Options value
// parameterizes any schedule.
type Options struct {
	// ViewChangeTimeout is the view-change timeout inside strong stages
	// (0 selects Backup's default).
	ViewChangeTimeout time.Duration
	// LowLoadAfter enables the low-load optimization of capable stages
	// (Chain): when only one client has been active for this long, the stage
	// aborts so the composition returns to its contention-free stage
	// (0 disables it).
	LowLoadAfter time.Duration
}

// Composition is a compiled (Spec, Options) pair: the single value from
// which deployments derive role-of-instance, the replica-side protocol
// factory, and the client-side instance factory.
type Composition struct {
	spec Spec
	opts Options
	// descs holds the descriptor of every slot of the expanded cycle.
	descs []*Descriptor
}

// New compiles a schedule with the given options.
func New(spec Spec, opts Options) (*Composition, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Composition{spec: spec, opts: opts}
	for _, st := range spec.Stages {
		d, _ := Lookup(st.Protocol)
		for r := 0; r < st.repeat(); r++ {
			c.descs = append(c.descs, d)
		}
	}
	return c, nil
}

// MustNew parses a DSL string and compiles it, panicking on error.
func MustNew(dsl string, opts Options) *Composition {
	c, err := New(MustParse(dsl), opts)
	if err != nil {
		panic(err)
	}
	return c
}

// Spec returns the schedule the composition was compiled from.
func (c *Composition) Spec() Spec { return c.spec }

// String renders the schedule in DSL form.
func (c *Composition) String() string { return c.spec.String() }

// DescriptorOf returns the descriptor of the stage instance id runs.
func (c *Composition) DescriptorOf(id core.InstanceID) *Descriptor {
	return c.descs[c.spec.slot(id)]
}

// ProtocolOf returns the protocol name instance id runs.
func (c *Composition) ProtocolOf(id core.InstanceID) string {
	return c.DescriptorOf(id).Name
}

// StrongIndex returns the 0-based count of strong-progress instances below
// id (the exponential K policy's input).
func (c *Composition) StrongIndex(id core.InstanceID) int { return c.spec.StrongIndex(id) }

// ReplicaFactory derives the per-instance protocol factory replicas run: the
// descriptor constructors are built once per stage and instances dispatch to
// their slot's factory.
func (c *Composition) ReplicaFactory() host.ProtocolFactory {
	ctx := ReplicaContext{Opts: c.opts, StrongIndex: c.spec.StrongIndex}
	made := make(map[*Descriptor]host.ProtocolFactory, len(c.descs))
	for _, d := range c.descs {
		if _, ok := made[d]; !ok {
			made[d] = d.NewReplica(ctx)
		}
	}
	return func(h *host.Host, st *host.InstanceState) host.ProtocolReplica {
		return made[c.DescriptorOf(st.ID)](h, st)
	}
}

// InstanceFactory derives the client-side instance factory of the
// composition.
func (c *Composition) InstanceFactory(env core.ClientEnv) core.InstanceFactory {
	return func(id core.InstanceID) (core.Instance, error) {
		inst, err := c.DescriptorOf(id).NewClient(env, id)
		if err != nil {
			return nil, fmt.Errorf("compose: instance %d (%s): %w", id, c.ProtocolOf(id), err)
		}
		return inst, nil
	}
}

// NewClient creates a composed-protocol client: a composer starting at
// instance 1 (the schedule's first stage).
func (c *Composition) NewClient(env core.ClientEnv) (*core.Composer, error) {
	return core.NewComposer(env, c.InstanceFactory(env))
}
