package core

import (
	"context"
	"fmt"
	"sync"
)

import "abstractbft/internal/msg"

// acpState is the client-side state of the Abstract composition protocol
// (ACP, §3.4) that Composer and PipelinedComposer share: the client's
// environment, the active instance, the init history still to hand to it,
// and the switch count. invoke is the one ACP loop over it.
type acpState struct {
	env ClientEnv

	mu sync.Mutex
	// active is the currently active instance.
	active InstanceID
	// pendingInit is the init history the active instance's first invocation
	// multicasts as its InitMessage; nil once sent.
	pendingInit *InitHistory
	// switches counts instance switches performed by this client.
	switches uint64
}

// Switches returns the number of instance switches this client performed.
func (a *acpState) Switches() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.switches
}

// ActiveInstance returns the identifier of the currently active instance.
func (a *acpState) ActiveInstance() InstanceID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active
}

// take returns the active instance and consumes the pending init history,
// multicasting it to every replica as the instance's InitMessage. Sending
// under the lock keeps any later invocation of the instance behind it on
// FIFO links. The init history goes on to the instance's first invocation
// (for Step P1+ and the spec checker); nothing re-arms it, since the
// replicas forward what they adopt.
func (a *acpState) take() (InstanceID, *InitHistory) {
	a.mu.Lock()
	defer a.mu.Unlock()
	init := a.pendingInit
	a.pendingInit = nil
	if init != nil {
		a.env.sendInit(a.active, init)
	}
	return a.active, init
}

// invoke runs the ACP loop for one request: invoke the active instance
// through the handle open returns (release runs once that invocation
// returns), and on an Abort indication switch to next(i) and retry there,
// handing the abort history to the next instance as its init history (take
// sends it). Aborts never reach the caller. A concurrent invocation may
// already have switched further.
func (a *acpState) invoke(ctx context.Context, req msg.Request, open func(InstanceID) (Instance, error), release func()) ([]byte, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id, init := a.take()
		inst, err := open(id)
		if err != nil {
			release()
			return nil, fmt.Errorf("core: creating instance %d: %w", id, err)
		}
		out, err := inst.Invoke(ctx, req, init)
		release()
		if err != nil {
			return nil, err
		}
		if verr := validateOutcome(out, id); verr != nil {
			return nil, verr
		}
		if out.Committed {
			return out.Reply, nil
		}
		a.mu.Lock()
		if a.active < out.Abort.Next {
			a.active = out.Abort.Next
			initCopy := out.Abort.Init
			a.pendingInit = &initCopy
			a.switches++
		}
		a.mu.Unlock()
	}
}

// Composer implements ACP on the client side: it invokes the currently
// active instance and, upon the first Abort indication, feeds the returned
// abort history to the next instance as its init history, never exposing the
// abort to the caller. The composition of instances therefore behaves, to
// the caller, like a single Abstract instance whose progress is the union of
// the constituents' progress — the composed protocols of this repository
// additionally guarantee it never aborts (liveness via Backup's
// exponentially growing k).
type Composer struct {
	acpState
	factory InstanceFactory
	// inst is the client-side handle of the most recently invoked instance,
	// reused until the composition switches away from it.
	inst Instance
}

// NewComposer creates a composer starting at FirstInstance; factory builds
// instance clients over env, which also sends the init histories.
func NewComposer(env ClientEnv, factory InstanceFactory) (*Composer, error) {
	inst, err := factory(FirstInstance)
	if err != nil {
		return nil, fmt.Errorf("core: creating instance %d: %w", FirstInstance, err)
	}
	return &Composer{acpState: acpState{env: env, active: FirstInstance}, factory: factory, inst: inst}, nil
}

// Invoke submits a request to the composition and blocks until it commits (or
// ctx is cancelled). Aborts of constituent instances are handled internally
// by switching, exactly as prescribed by ACP.
func (c *Composer) Invoke(ctx context.Context, req msg.Request) ([]byte, error) {
	return c.invoke(ctx, req, c.open, func() {})
}

// open returns the handle of instance id, creating it on the first
// invocation after a switch.
func (c *Composer) open(id InstanceID) (Instance, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inst.ID() != id {
		inst, err := c.factory(id)
		if err != nil {
			return nil, err
		}
		c.inst = inst
	}
	return c.inst, nil
}
