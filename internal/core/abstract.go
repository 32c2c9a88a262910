// Package core implements Abstract (ABortable STate mAChine replicaTion), the
// paper's primary contribution: the specification types of an Abstract
// instance, abort/init histories and their unforgeable proofs, the
// client-side composition protocol (ACP) that glues instances together, the
// shared panicking/aborting client machinery, and a trace-based specification
// checker used by the test suite to validate the six Abstract properties
// (Validity, Termination, Progress, Init Order, Commit Order, Abort Order).
package core

import (
	"context"
	"errors"
	"fmt"

	"abstractbft/internal/history"
	"abstractbft/internal/msg"
)

// InstanceID identifies an Abstract instance; instance numbers increase
// monotonically along a composition (next(i) > i). In all protocols of this
// repository next(i) = i+1 (static switching).
type InstanceID uint64

// Next returns the statically determined next instance, next(i) = i+1.
func (i InstanceID) Next() InstanceID { return i + 1 }

// FirstInstance is the instance every composition starts at: replicas
// activate it without an init history and clients invoke it first, so both
// sides take it from here.
const FirstInstance InstanceID = 1

// Errors returned by Abstract client implementations.
var (
	// ErrStopped is returned when invoking an instance that has permanently
	// stopped and can no longer produce indications for this client.
	ErrStopped = errors.New("core: instance stopped")
	// ErrInvalidInit indicates an init history whose proof does not verify.
	ErrInvalidInit = errors.New("core: invalid init history")
)

// Outcome is the indication returned by an Abstract instance for one
// invocation: either Commit(req, rep) or Abort(req, abort history, next(i)).
type Outcome struct {
	// Committed is true for a Commit indication and false for an Abort.
	Committed bool
	// Reply holds the application-level reply for a committed request.
	Reply []byte
	// CommitHistory, when the instance runs with history instrumentation
	// enabled, holds the digests of the commit history h_req. It is used by
	// the specification checker in tests and is nil in normal operation
	// (clients only ever see D(h_req)).
	CommitHistory history.DigestHistory
	// Abort describes the abort indication when Committed is false.
	Abort *AbortIndication
}

// AbortIndication carries everything a client needs to switch to the next
// instance: the identifier of next(i) and the init history (abort history +
// unforgeable proof) to pass along.
type AbortIndication struct {
	// Next is next(i), the instance to switch to.
	Next InstanceID
	// Init is the abort history of the aborting instance packaged as the
	// init history of the next instance, together with its proof.
	Init InitHistory
}

// InitHistory is an abort history of instance From packaged for
// initialization of instance For, together with the unforgeable proof (2f+1
// signed ABORT messages) that lets replicas of the next instance verify it
// was genuinely produced by the previous instance.
type InitHistory struct {
	// From is the aborting instance that produced the abort history.
	From InstanceID
	// For is the instance being initialized, next(From).
	For InstanceID
	// Extract is the extracted abort history: a base checkpoint plus the
	// digests of the requests after it.
	Extract history.ExtractResult
	// Proof holds at least 2f+1 signed ABORT messages from distinct
	// replicas of instance From, all declaring next = For.
	Proof []SignedAbort
	// Requests carries request bodies known to the sender for digests
	// appearing in Extract.Suffix; replicas resolve the remaining bodies
	// from their own logs or by fetching them from other replicas (§4.4).
	Requests []msg.Request
}

// Digests returns the digest history of the init history's suffix.
func (ih *InitHistory) Digests() history.DigestHistory {
	if ih == nil {
		return nil
	}
	return ih.Extract.Suffix
}

// Instance is the client-side handle of one Abstract instance: it invokes
// requests and returns Commit or Abort indications.
//
// The init parameter is the init history on the first invocation of an
// instance by this client (nil otherwise). The ACP loop has already
// multicast it as the instance's InitMessage; the instance passes it only
// to PanicAndAbort, which re-sends it (Step P1+), and to the spec checker.
type Instance interface {
	// ID returns the instance number.
	ID() InstanceID
	// Invoke submits req and blocks until the instance commits or aborts
	// it, or ctx is cancelled.
	Invoke(ctx context.Context, req msg.Request, init *InitHistory) (Outcome, error)
}

// BatchInstance is implemented by instance clients that can invoke several
// pipelined requests of one client as a single protocol step (one batch
// message, one authenticator). InvokeBatch is an optimistic fast path: it
// returns one outcome per request, in order, with Committed=false for
// requests the commit rule did not cover in time; callers fall back to
// per-request Invoke (and its panicking machinery) for those.
type BatchInstance interface {
	Instance
	InvokeBatch(ctx context.Context, reqs []msg.Request, init *InitHistory) ([]Outcome, error)
}

// InstanceFactory creates the client-side handle for the given instance
// number. Composed protocols (AZyzzyva, Aliph) provide factories that rotate
// through their constituent Abstract implementations.
type InstanceFactory func(id InstanceID) (Instance, error)

// Progress describes, for documentation and for the specification checker,
// the progress predicate of an instance implementation.
type Progress int

// Progress predicates of the instances built in this repository.
const (
	// ProgressNever never guarantees progress (not used by any instance; the
	// zero value).
	ProgressNever Progress = iota
	// ProgressCommonCase guarantees progress when there are no replica or
	// link failures and no Byzantine clients (ZLight, Chain).
	ProgressCommonCase
	// ProgressNoContention additionally requires the absence of contention
	// (Quorum).
	ProgressNoContention
	// ProgressAlwaysK guarantees that exactly k requests commit regardless
	// of asynchrony and failures (Backup).
	ProgressAlwaysK
	// ProgressAlways never aborts: a traditional state machine.
	ProgressAlways
)

// String implements fmt.Stringer.
func (p Progress) String() string {
	switch p {
	case ProgressCommonCase:
		return "common-case"
	case ProgressNoContention:
		return "no-contention"
	case ProgressAlwaysK:
		return "always-k"
	case ProgressAlways:
		return "always"
	default:
		return "never"
	}
}

// validateOutcome performs basic well-formedness checks shared by client
// implementations before returning an outcome to the application.
func validateOutcome(o Outcome, id InstanceID) error {
	if o.Committed {
		if o.Abort != nil {
			return fmt.Errorf("core: instance %d returned both commit and abort", id)
		}
		return nil
	}
	if o.Abort == nil {
		return fmt.Errorf("core: instance %d returned abort without indication", id)
	}
	if o.Abort.Next <= id {
		return fmt.Errorf("core: instance %d switches to non-increasing instance %d", id, o.Abort.Next)
	}
	return nil
}
