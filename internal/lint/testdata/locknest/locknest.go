// Package locknest is the analyzer fixture for the host-lock re-entry check.
// Each // want comment is a regexp the analyzer's diagnostic on that line
// must match; lines without one must stay silent.
package locknest

import (
	"sync"
	"time"

	"abstractbft/internal/clock"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
)

// deadlocks is the PR 1 R-Aliph self-deadlock shape, verbatim: a Locked
// callback calling a host method that takes the lock itself.
func deadlocks(h *host.Host) {
	h.Locked(func() { // want "re-enters it"
		h.InstanceStateFor(1)
	})
}

// fine reads only caller-provided state inside the callback.
func fine(h *host.Host, applied *uint64) {
	h.Locked(func() {
		*applied++
	})
}

// replica re-enters the host lock two calls deep from Handle, which the
// host event loop invokes under its lock (the //abstractbft:lockheld
// annotation on ProtocolReplica.Handle, reached through class-hierarchy
// interface dispatch).
type replica struct{ h *host.Host }

func (r *replica) Handle(from ids.ProcessID, m any) { // want "re-enters it"
	r.refresh()
}

func (r *replica) refresh() {
	r.h.ActiveInstance()
}

// switcher hands the lock-taking work to a goroutine — the sanctioned
// escape for code that must take the host lock from a lock-held handler.
// Removing the go keyword from Handle turns this into the finding above.
type switcher struct{ h *host.Host }

func (s *switcher) Handle(from ids.ProcessID, m any) {
	go s.initiate()
}

func (s *switcher) initiate() {
	s.h.Locked(func() {})
}

// armsDeadline is the Batcher's delay timer: armed under the host lock, its
// callback re-takes the lock — on the clock's goroutine, once the deadline
// passes, not on this stack. clock.AfterFunc is a registered async callee
// like time.AfterFunc, so the literal gets no edge from its caller (and is
// still analysed on its own: the nested Locked inside it is a finding).
func armsDeadline(h *host.Host) {
	h.Locked(func() {
		clock.AfterFunc(time.Millisecond, func() {
			h.Locked(func() {})
		})
		time.AfterFunc(time.Millisecond, func() {
			h.Locked(func() { // want "re-enters it"
				h.ActiveInstance()
			})
		})
	})
}

// audited documents a hand-off the analyzer cannot see through and stops
// traversal with //abstractbft:locksafe.
type auditedReplica struct{ h *host.Host }

func (a *auditedReplica) Handle(from ids.ProcessID, m any) {
	a.deferred()
}

// deferred would re-enter the lock if called synchronously; the annotation
// records a human audit that it never is (fixture stand-in for a queued
// continuation).
//
//abstractbft:locksafe runs from the event queue, not the Handle stack
func (a *auditedReplica) deferred() {
	a.h.AppliedState()
}

// configs exercises the lockheld-annotated func field sources: functions
// assigned to Config.RetainFloor run under the host lock.
func configs(h *host.Host) (host.Config, host.Config) {
	bad := host.Config{
		RetainFloor: func() uint64 { // want "re-enters it"
			n, _ := h.AppliedState()
			return n
		},
	}
	good := host.Config{
		RetainFloor: func() uint64 { return 0 },
	}
	return bad, good
}

// counter exercises the intraprocedural receiver-mutex check, which needs no
// annotations and guards every lock in the module.
type counter struct {
	mu sync.Mutex
	n  uint64
}

func (c *counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *counter) IncTwice() {
	c.mu.Lock()
	c.Inc() // want "self-deadlock"
	c.mu.Unlock()
}

func (c *counter) IncAfterUnlock() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.Inc()
}
