package core

import (
	"context"
	"fmt"
	"sync"
)

import "abstractbft/internal/msg"

// Composer implements the Abstract composition protocol (ACP, §3.4) on the
// client side: it invokes the currently active instance and, upon the first
// Abort indication, feeds the returned abort history to the next instance as
// its init history, never exposing the abort to the caller. The composition
// of instances therefore behaves, to the caller, like a single Abstract
// instance whose progress is the union of the constituents' progress — the
// composed protocols of this repository additionally guarantee it never
// aborts (liveness via Backup's exponentially growing k).
type Composer struct {
	factory InstanceFactory

	mu sync.Mutex
	// active is the client-side handle of the currently active instance.
	active Instance
	// pendingInit is the init history to attach to the next (first)
	// invocation of the active instance; nil once delivered.
	pendingInit *InitHistory
	// switches counts instance switches performed by this client.
	switches uint64
}

// NewComposer creates a composer starting at FirstInstance.
func NewComposer(factory InstanceFactory) (*Composer, error) {
	inst, err := factory(FirstInstance)
	if err != nil {
		return nil, fmt.Errorf("core: creating instance %d: %w", FirstInstance, err)
	}
	return &Composer{factory: factory, active: inst}, nil
}

// Switches returns the number of instance switches this client performed.
func (c *Composer) Switches() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.switches
}

// ActiveInstance returns the identifier of the currently active instance.
func (c *Composer) ActiveInstance() InstanceID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active.ID()
}

// Invoke submits a request to the composition and blocks until it commits (or
// ctx is cancelled). Aborts of constituent instances are handled internally
// by switching, exactly as prescribed by ACP.
func (c *Composer) Invoke(ctx context.Context, req msg.Request) ([]byte, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		inst := c.active
		init := c.pendingInit
		c.pendingInit = nil
		c.mu.Unlock()

		out, err := inst.Invoke(ctx, req, init)
		if err != nil {
			// Re-arm the init history so a retry after a transient error
			// still initializes the instance.
			if init != nil {
				c.mu.Lock()
				if c.active == inst && c.pendingInit == nil {
					c.pendingInit = init
				}
				c.mu.Unlock()
			}
			return nil, err
		}
		if verr := validateOutcome(out, inst.ID()); verr != nil {
			return nil, verr
		}
		if out.Committed {
			return out.Reply, nil
		}

		// Abort: switch to next(i) and retry the request there, carrying the
		// abort history as init history (only on the first invocation).
		next := out.Abort.Next
		c.mu.Lock()
		if c.active.ID() < next {
			nextInst, ferr := c.factory(next)
			if ferr != nil {
				c.mu.Unlock()
				return nil, fmt.Errorf("core: creating instance %d: %w", next, ferr)
			}
			c.active = nextInst
			initCopy := out.Abort.Init
			c.pendingInit = &initCopy
			c.switches++
		}
		c.mu.Unlock()
	}
}
