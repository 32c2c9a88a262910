package core

import (
	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// AbortCollector accumulates signed ABORT messages received by a panicking
// client and decides when an abort indication can be produced (Step P3): it
// needs 2f+1 correctly signed ABORT messages from distinct replicas agreeing
// on next(i).
//
// The collector is used by the client implementations of ZLight, Quorum and
// Chain, which share the panicking/aborting subprotocol.
type AbortCollector struct {
	cluster  ids.Cluster
	ks       *authn.KeyStore
	instance InstanceID

	byReplica map[ids.ProcessID]SignedAbort
}

// NewAbortCollector creates a collector for the given instance.
func NewAbortCollector(cluster ids.Cluster, ks *authn.KeyStore, instance InstanceID) *AbortCollector {
	return &AbortCollector{
		cluster:   cluster,
		ks:        ks,
		instance:  instance,
		byReplica: make(map[ids.ProcessID]SignedAbort),
	}
}

// Add records a signed abort message after verifying it. Invalid or
// irrelevant messages are ignored and reported as not counted.
func (c *AbortCollector) Add(s SignedAbort) bool {
	if s.Abort.Instance != c.instance {
		return false
	}
	if !s.Abort.Replica.IsReplica() || int(s.Abort.Replica) >= c.cluster.N {
		return false
	}
	if _, dup := c.byReplica[s.Abort.Replica]; dup {
		return false
	}
	if err := s.Verify(c.ks); err != nil {
		return false
	}
	c.byReplica[s.Abort.Replica] = s
	return true
}

// Count returns the number of valid signed aborts collected so far.
func (c *AbortCollector) Count() int { return len(c.byReplica) }

// Ready reports whether enough aborts (2f+1 agreeing on next) have been
// collected to produce an abort indication.
func (c *AbortCollector) Ready() bool {
	_, ok := c.majorityNext()
	return ok
}

func (c *AbortCollector) majorityNext() (InstanceID, bool) {
	counts := make(map[InstanceID]int)
	for _, s := range c.byReplica {
		counts[s.Abort.Next]++
	}
	for next, n := range counts {
		if n >= c.cluster.Quorum() {
			return next, true
		}
	}
	return 0, false
}

// Build produces the abort indication: the extracted abort history packaged
// as the init history of the next instance, together with its proof. The
// known request bodies (typically the panicking client's own request) are
// attached so the next instance can resolve them without fetching.
func (c *AbortCollector) Build(known []msg.Request) (AbortIndication, error) {
	next, ok := c.majorityNext()
	if !ok {
		return AbortIndication{}, ErrStopped
	}
	var signed []SignedAbort
	for _, s := range c.byReplica {
		if s.Abort.Next == next {
			signed = append(signed, s)
		}
	}
	ih, err := BuildInitHistory(c.cluster, c.instance, signed, known)
	if err != nil {
		return AbortIndication{}, err
	}
	return AbortIndication{Next: next, Init: ih}, nil
}
