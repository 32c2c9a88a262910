package raliph

import (
	"sync"
	"time"

	"abstractbft/internal/aliph"
	"abstractbft/internal/authn"
	"abstractbft/internal/backup"
	"abstractbft/internal/chain"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/quorum"
	"abstractbft/internal/transport"
)

// SwitcherClientID returns the client identity a replica uses when it acts as
// a client to perform replica-initiated switching (Principle P4): the replica
// invokes a noop request and immediately panics, so switching does not depend
// on application clients.
func SwitcherClientID(replica ids.ProcessID) ids.ProcessID {
	return ids.Client(1_000_000 + int(replica))
}

// switcher performs replica-initiated switching for one replica.
type switcher struct {
	h        *host.Host
	cluster  ids.Cluster
	keys     *authn.KeyStore
	id       ids.ProcessID // the switcher's client identity
	endpoint transport.Endpoint
	retry    time.Duration
	timeout  time.Duration

	mu           sync.Mutex
	nextTS       uint64
	lastDuration time.Duration
	switches     uint64
}

func newSwitcher(h *host.Host, keys *authn.KeyStore, endpoint transport.Endpoint, retry, timeout time.Duration) *switcher {
	if retry <= 0 {
		retry = 25 * time.Millisecond
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &switcher{
		h:        h,
		cluster:  h.Cluster(),
		keys:     keys,
		id:       SwitcherClientID(h.ID()),
		endpoint: endpoint,
		retry:    retry,
		timeout:  timeout,
	}
}

// LastSwitchDuration returns the duration of the most recent replica-initiated
// switch (Table V measures its worst case).
func (s *switcher) LastSwitchDuration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastDuration
}

// Switches returns how many switches this replica initiated.
func (s *switcher) Switches() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.switches
}

// InitiateSwitch abandons the given instance: the replica stops it locally,
// panics it on every replica (acting as a client), collects 2f+1 signed
// ABORT messages, and activates the next instance with the resulting init
// history and a noop request.
func (s *switcher) InitiateSwitch(current core.InstanceID) {
	start := time.Now()
	// Stop the instance locally so it aborts subsequent requests even before
	// other replicas receive the panic. (InstanceStateFor takes the host lock
	// itself, so it must not be nested inside Locked.)
	s.h.StopInstanceByID(current)

	s.mu.Lock()
	s.nextTS++
	ts := s.nextTS
	s.mu.Unlock()

	panicMsg := &core.PanicMessage{Instance: current, Client: s.id, Timestamp: ts}
	sendPanic := func() {
		for _, r := range s.cluster.Replicas() {
			s.endpoint.Send(r, panicMsg)
		}
	}
	sendPanic()

	collector := core.NewAbortCollector(s.cluster, s.keys, current)
	deadline := time.NewTimer(s.timeout)
	defer deadline.Stop()
	retry := time.NewTicker(s.retry)
	defer retry.Stop()

	for !collector.Ready() {
		select {
		case <-deadline.C:
			return
		case <-retry.C:
			sendPanic()
		case env, ok := <-s.endpoint.Inbox():
			if !ok {
				return
			}
			if reply, isAbort := env.Payload.(*core.AbortReply); isAbort && reply.Instance == current {
				collector.Add(reply.Signed)
			}
		}
	}

	noop := msg.Request{Client: s.id, Timestamp: ts, Command: nil}
	ind, err := collector.Build([]msg.Request{noop})
	if err != nil {
		return
	}
	s.activateNext(ind, noop)

	s.mu.Lock()
	s.lastDuration = time.Since(start)
	s.switches++
	s.mu.Unlock()
}

// activateNext sends the first invocation of the next instance, carrying the
// init history, so every replica initializes it without client involvement.
func (s *switcher) activateNext(ind core.AbortIndication, noop msg.Request) {
	next := ind.Next
	init := &ind.Init
	switch aliph.RoleOf(next) {
	case aliph.RoleQuorum:
		authBytes := quorum.AuthBytes(next, noop.Digest())
		auth := s.keys.NewAuthenticator(s.id, s.cluster.Replicas(), authBytes[:])
		m := &quorum.RequestMessage{Instance: next, Req: noop, Init: init, Auth: auth}
		transport.Multicast(s.endpoint, s.cluster.Replicas(), m)
	case aliph.RoleChain:
		ca := s.keys.AppendChainMACs(authn.ChainAuthenticator{}, s.id, s.cluster.ChainSuccessorSet(s.id), chain.ClientAuthBytes(next, noop))
		m := &chain.Message{Instance: next, Req: noop, CA: ca, Init: init}
		s.endpoint.Send(s.cluster.Head(), m)
	default:
		auth := s.keys.NewAuthenticator(s.id, s.cluster.Replicas(), backup.AuthBytes(next, noop))
		m := &backup.RequestMessage{Instance: next, Req: noop, Init: init, Auth: auth}
		transport.Multicast(s.endpoint, s.cluster.Replicas(), m)
	}
}
