// Package ids defines process identities and cluster configuration for the
// Abstract BFT framework.
//
// A cluster consists of n replicas (n = 3f+1 for most protocols, 5f+1 for
// Q/U) and an arbitrary number of clients. Replicas occupy the identifier
// range [0, n); clients occupy [ClientBase, ∞).
package ids

import "fmt"

// ProcessID identifies a process (replica or client) in the system.
type ProcessID int32

// ClientBase is the first identifier used for clients. All identifiers below
// ClientBase name replicas.
const ClientBase ProcessID = 1 << 20

// IsClient reports whether p names a client process.
func (p ProcessID) IsClient() bool { return p >= ClientBase }

// IsReplica reports whether p names a replica process.
func (p ProcessID) IsReplica() bool { return p >= 0 && p < ClientBase }

// NullOp is the reserved identity under which shard leaders order
// Mencius-style null operations: fillers that advance an idle shard's
// history (so cross-shard merge rounds complete without waiting on it)
// while executing nothing. It is neither a client nor a replica; null
// requests carry no authenticator and receive no reply.
const NullOp ProcessID = -1

// String renders the identifier as "r<i>" for replicas and "c<i>" for clients.
func (p ProcessID) String() string {
	if p == NullOp {
		return "null"
	}
	if p.IsClient() {
		return fmt.Sprintf("c%d", int32(p-ClientBase))
	}
	return fmt.Sprintf("r%d", int32(p))
}

// Replica returns the ProcessID of the i-th replica (0-based).
func Replica(i int) ProcessID { return ProcessID(i) }

// Client returns the ProcessID of the i-th client (0-based).
func Client(i int) ProcessID { return ClientBase + ProcessID(i) }

// Cluster describes a replica group tolerating up to F Byzantine replicas.
type Cluster struct {
	// F is the maximum number of Byzantine replicas tolerated.
	F int
	// N is the total number of replicas: 3F+1 for every protocol in this
	// repository.
	N int
	// Lead rotates the logical chain/leader order: position i in chain order
	// is replica (Lead+i) mod N, so the head (ZLight's primary, Chain's head,
	// PBFT's view-0 primary) is replica Lead instead of replica 0. The sharded
	// ordering plane gives every shard a different Lead so the S leaders
	// spread across the replica group. Zero is the classic order.
	Lead int
}

// WithLead returns the cluster with its chain/leader order rotated so that
// replica (lead mod N) occupies position 0.
func (c Cluster) WithLead(lead int) Cluster {
	c.Lead = ((lead % c.N) + c.N) % c.N
	return c
}

// Pos returns replica r's position in the rotated chain order.
func (c Cluster) Pos(r ProcessID) int { return (int(r) - c.Lead + c.N) % c.N }

// AtPos returns the replica occupying position i of the rotated chain order.
func (c Cluster) AtPos(i int) ProcessID { return Replica((c.Lead + i) % c.N) }

// NewCluster returns the standard 3f+1 cluster configuration.
func NewCluster(f int) Cluster {
	if f < 0 {
		panic("ids: negative f")
	}
	return Cluster{F: f, N: 3*f + 1}
}

// replicaTable backs Replicas for every cluster of up to its length: replica
// identifiers are the indices themselves, so all clusters share one
// read-only table instead of allocating the list on every multicast.
var replicaTable = func() (t [64]ProcessID) {
	for i := range t {
		t[i] = Replica(i)
	}
	return t
}()

// Replicas returns the ProcessIDs of all replicas in the cluster, in chain
// order (ascending replica index). The slice is shared between callers and
// must not be modified (appending is safe: it copies).
func (c Cluster) Replicas() []ProcessID {
	if c.N <= len(replicaTable) {
		return replicaTable[:c.N:c.N]
	}
	out := make([]ProcessID, c.N)
	for i := range out {
		out[i] = Replica(i)
	}
	return out
}

// Others returns every replica of the cluster except self, in ascending
// index order (a fresh slice: callers may keep or modify it).
func (c Cluster) Others(self ProcessID) []ProcessID {
	out := make([]ProcessID, 0, c.N)
	for _, r := range c.Replicas() {
		if r != self {
			out = append(out, r)
		}
	}
	return out
}

// Quorum returns the size of a Byzantine quorum (2f+1) for the cluster.
func (c Cluster) Quorum() int { return 2*c.F + 1 }

// WeakQuorum returns f+1, the number of matching replies that guarantees at
// least one correct replica vouches for a value.
func (c Cluster) WeakQuorum() int { return c.F + 1 }

// Primary returns the primary replica for the given view number
// (position view mod N of the rotated order), as used by PBFT-style
// protocols.
func (c Cluster) Primary(view uint64) ProcessID {
	return c.AtPos(int(view % uint64(c.N)))
}

// Head returns the head of the chain order (position 0).
func (c Cluster) Head() ProcessID { return c.AtPos(0) }

// Tail returns the tail of the chain order (position N-1).
func (c Cluster) Tail() ProcessID { return c.AtPos(c.N - 1) }

// ChainSuccessor returns the successor of replica r in chain order, and
// whether r is the tail (in which case the successor is the client).
func (c Cluster) ChainSuccessor(r ProcessID) (ProcessID, bool) {
	i := c.Pos(r)
	if i >= c.N-1 {
		return -1, false
	}
	return c.AtPos(i + 1), true
}

// ChainPredecessor returns the predecessor of replica r in chain order, and
// whether r is the head (in which case the predecessor is the client).
func (c Cluster) ChainPredecessor(r ProcessID) (ProcessID, bool) {
	i := c.Pos(r)
	if i <= 0 {
		return -1, false
	}
	return c.AtPos(i - 1), true
}

// ChainSuccessorSet returns the successor set of process p as defined by the
// Chain protocol (§5.3): for clients it is the first f+1 replicas; for the
// first 2f replicas it is the next f+1 replicas in the chain; for later
// replicas it is all subsequent replicas (the client is handled separately by
// callers, because the client is not a replica identifier).
func (c Cluster) ChainSuccessorSet(p ProcessID) []ProcessID {
	if p.IsClient() {
		out := make([]ProcessID, 0, c.F+1)
		for i := 0; i < c.F+1 && i < c.N; i++ {
			out = append(out, c.AtPos(i))
		}
		return out
	}
	i := c.Pos(p)
	var out []ProcessID
	if i < 2*c.F {
		for j := i + 1; j <= i+c.F+1 && j < c.N; j++ {
			out = append(out, c.AtPos(j))
		}
		return out
	}
	for j := i + 1; j < c.N; j++ {
		out = append(out, c.AtPos(j))
	}
	return out
}

// ChainPredecessorSet returns the set of processes q such that p belongs to
// q's successor set. For the head the client is part of the predecessor set;
// the client is represented by the provided client identifier when non-zero.
func (c Cluster) ChainPredecessorSet(p ProcessID) []ProcessID {
	var out []ProcessID
	for j := 0; j < c.N; j++ {
		q := c.AtPos(j)
		if q == p {
			continue
		}
		for _, s := range c.ChainSuccessorSet(q) {
			if s == p {
				out = append(out, q)
				break
			}
		}
	}
	return out
}

// LastReplicas returns the last f+1 replicas in chain order; these are the
// replicas that execute requests and authenticate replies in Chain.
func (c Cluster) LastReplicas() []ProcessID {
	out := make([]ProcessID, 0, c.F+1)
	for i := 2 * c.F; i < c.N; i++ {
		out = append(out, c.AtPos(i))
	}
	return out
}

// Validate reports an error when the cluster configuration is inconsistent.
func (c Cluster) Validate() error {
	if c.F < 0 {
		return fmt.Errorf("ids: cluster has negative f=%d", c.F)
	}
	if c.N < 3*c.F+1 {
		return fmt.Errorf("ids: cluster too small: n=%d < 3f+1=%d", c.N, 3*c.F+1)
	}
	return nil
}
