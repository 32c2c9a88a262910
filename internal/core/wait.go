package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"abstractbft/internal/transport"
)

// InboxWait is a client's wait on its endpoint's inbox, the one receive loop
// every instance client runs (the commit rules, the panic loop, Chain's tail
// reply, Backup's replies). It blocks on the inbox alone: the wait's deadline
// and its context's cancellation reach it as wake-ups (transport.Endpoint
// Wake) that first poke the wait. After a poke, and only then, Next checks
// ctx.Err() and the clock, so a poke left over from an earlier wait — a timer
// that fired as Stop lost the race — or a wake-up from anywhere else never
// ends the current one.
//
// An environment from ClientEnv.WithEndpoint carries one InboxWait for its
// endpoint, reused by every wait on it: the timer is reset per wait, never
// allocated, and a context is registered once however many waits use it (a
// load generator passes the same one to every request). The waits of one
// endpoint are sequential, as the one reader of an inbox must be anyway.
type InboxWait struct {
	// mu guards ep against rebind, for the callbacks; the waiting goroutine
	// is the only writer and reads it freely.
	mu sync.Mutex
	ep transport.Endpoint
	// timer pokes at the deadline; ctx's registration pokes on cancellation.
	timer    *time.Timer
	ctx      context.Context
	unwatch  func() bool
	deadline time.Time
	poked    atomic.Bool
	// own marks a wait built for one use (an environment without a wait for
	// its endpoint): Done releases its context registration too.
	own bool
}

func newInboxWait(ep transport.Endpoint) *InboxWait {
	w := &InboxWait{ep: ep}
	w.timer = time.AfterFunc(time.Hour, w.poke)
	w.timer.Stop()
	return w
}

// poke marks the wait for a check of its conditions and wakes the inbox.
func (w *InboxWait) poke() {
	w.poked.Store(true)
	w.mu.Lock()
	ep := w.ep
	w.mu.Unlock()
	ep.Wake()
}

// rebind points the wait at another endpoint (a pipelined client reuses its
// waits across subscriptions). A late poke may still wake the old one, or
// wake the new one for nothing; neither ends a wait.
func (w *InboxWait) rebind(ep transport.Endpoint) {
	w.mu.Lock()
	w.ep = ep
	w.mu.Unlock()
}

// Await starts a wait on e's inbox that ends when ctx is done or d has
// passed. The caller reads it with Next and releases it with Done.
func (e ClientEnv) Await(ctx context.Context, d time.Duration) *InboxWait {
	w := e.wait
	if w == nil || w.ep != e.Endpoint {
		w = newInboxWait(e.Endpoint)
		w.own = true
	}
	if ctx != w.ctx {
		if w.unwatch != nil {
			w.unwatch()
		}
		w.ctx, w.unwatch = ctx, nil
		if ctx.Done() != nil {
			w.unwatch = context.AfterFunc(ctx, w.poke)
		}
	}
	// The first Next checks at once: ctx may have ended before this wait.
	w.poked.Store(true)
	w.Rearm(d)
	return w
}

// Rearm moves the wait's deadline to d from now (a retransmission period).
func (w *InboxWait) Rearm(d time.Duration) {
	w.deadline = time.Now().Add(d)
	w.timer.Reset(d)
}

// Next returns the inbox's next message. ok is false, with a nil error, when
// the deadline passed first; err is ctx.Err() once the context is done, or
// ErrStopped when the inbox closed.
func (w *InboxWait) Next() (env transport.Envelope, ok bool, err error) {
	in := w.ep.Inbox()
	for {
		if w.poked.Load() && w.poked.Swap(false) {
			if err := w.ctx.Err(); err != nil {
				return transport.Envelope{}, false, err
			}
			if !time.Now().Before(w.deadline) {
				return transport.Envelope{}, false, nil
			}
		}
		env, open := <-in
		if !open {
			return transport.Envelope{}, false, ErrStopped
		}
		if env.Payload != nil {
			return env, true, nil
		}
		// A wake-up: its poke, if it was ours, is checked above.
	}
}

// Done ends the wait.
func (w *InboxWait) Done() {
	w.timer.Stop()
	if w.own && w.unwatch != nil {
		w.unwatch()
	}
}
