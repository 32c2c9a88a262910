package core

import (
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/transport"
)

// ClientEnv bundles the per-client resources shared by every Abstract
// instance client implementation: the cluster description, keys, the client's
// network endpoint, and timing parameters.
//
// A client invokes instances sequentially (well-formed clients issue one
// request at a time), so instance clients created from the same ClientEnv may
// share the endpoint's inbox without additional synchronization. Build it
// with WithEndpoint, so that they share one InboxWait too; an environment
// whose Endpoint is set directly waits just as well but builds a new wait
// each time.
type ClientEnv struct {
	// Cluster describes the replica group.
	Cluster ids.Cluster
	// Keys is the cryptographic key store.
	Keys *authn.KeyStore
	// ID is the client's process identifier.
	ID ids.ProcessID
	// Endpoint attaches the client to the network.
	Endpoint transport.Endpoint
	// Delta is the one-way delay bound Δ = Θ_p + Θ_c used to arm client
	// timers (3Δ for ZLight, 2Δ for Quorum, (n+1)Δ for Chain).
	Delta time.Duration
	// Checker optionally records events for the Abstract specification
	// checker (tests only).
	Checker *SpecChecker

	// wait is Endpoint's reusable InboxWait (see WithEndpoint).
	wait *InboxWait
}

// WithEndpoint returns e attached to ep, with one InboxWait for ep's inbox
// that every copy of the result shares.
func (e ClientEnv) WithEndpoint(ep transport.Endpoint) ClientEnv {
	e.Endpoint = ep
	e.wait = newInboxWait(ep)
	return e
}

// Timer returns a timer duration of k*Delta with a sensible default when
// Delta is unset.
func (e ClientEnv) Timer(k int) time.Duration {
	d := e.Delta
	if d <= 0 {
		d = 20 * time.Millisecond
	}
	return time.Duration(k) * d
}

// sendInit multicasts instance's init history to every replica as its
// InitMessage.
func (e ClientEnv) sendInit(instance InstanceID, init *InitHistory) {
	transport.Multicast(e.Endpoint, e.Cluster.Replicas(), &InitMessage{Instance: instance, Init: *init})
}
