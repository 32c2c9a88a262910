package history

import (
	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
)

// DefaultCheckpointInterval is CHK, the number of requests between
// checkpoints used in the paper's evaluation (§4.2.4).
const DefaultCheckpointInterval = 128

// CheckpointState tracks the lightweight checkpoint subprotocol (LCS) state
// of one replica: the last stable checkpoint (agreed by all replicas) and the
// pending checkpoint exchange.
type CheckpointState struct {
	// Interval is CHK, the number of requests between checkpoints.
	Interval int
	// cluster size used to decide stability (LCS requires the same digest
	// from all replicas).
	n int

	// lastStableSeq is cc*CHK of the last stable checkpoint.
	lastStableSeq uint64
	// lastStableDigest is st_cc of the last stable checkpoint.
	lastStableDigest authn.Digest
	// lastCounter is lastcc.
	lastCounter uint64

	// pending holds, per checkpoint counter, the state digests received from
	// each replica (including this one); held counts each replica's votes in
	// it, at most maxPendingVotes.
	pending map[uint64]map[ids.ProcessID]authn.Digest
	held    map[ids.ProcessID]int
}

// maxPendingVotes bounds the votes one replica can hold pending, so pending
// stays below n·maxPendingVotes entries however many counters a faulty
// replica votes for. A replica keeps its newest votes: a newer stable
// checkpoint supersedes an older one, so a correct replica that runs more
// than this many checkpoints ahead of a slow one loses nothing by dropping
// its oldest votes — the slow replica's later votes meet its newer ones.
const maxPendingVotes = 8

// NewCheckpointState returns checkpoint state for a cluster of n replicas
// using the given interval (DefaultCheckpointInterval when interval <= 0).
func NewCheckpointState(n, interval int) *CheckpointState {
	if interval <= 0 {
		interval = DefaultCheckpointInterval
	}
	return &CheckpointState{
		Interval: interval,
		n:        n,
		pending:  make(map[uint64]map[ids.ProcessID]authn.Digest),
		held:     make(map[ids.ProcessID]int),
	}
}

// StableSeq returns the absolute position covered by the last stable
// checkpoint.
func (c *CheckpointState) StableSeq() uint64 { return c.lastStableSeq }

// StableDigest returns the digest of the last stable checkpoint state.
func (c *CheckpointState) StableDigest() authn.Digest { return c.lastStableDigest }

// StableCounter returns lastcc, the counter of the last stable checkpoint.
func (c *CheckpointState) StableCounter() uint64 { return c.lastCounter }

// ShouldCheckpoint reports whether a replica whose local history has reached
// histLen requests (absolute position) should initiate checkpoint exchange,
// and the checkpoint counter to use.
func (c *CheckpointState) ShouldCheckpoint(histLen uint64) (uint64, bool) {
	if c.Interval <= 0 {
		return 0, false
	}
	counter := histLen / uint64(c.Interval)
	if counter > c.lastCounter && histLen >= uint64(c.Interval) {
		return counter, true
	}
	return 0, false
}

// Record registers a CHECKPOINT message from replica r carrying the digest of
// state st_cc for checkpoint counter cc. It returns true when the checkpoint
// became stable as a result (the same digest has been received from all n
// replicas and cc is newer than the last stable one). Only replicas 0..n-1
// vote, and each holds at most maxPendingVotes counters pending: a vote past
// that replaces the replica's oldest one, or is dropped when it is older
// still.
func (c *CheckpointState) Record(r ids.ProcessID, cc uint64, digest authn.Digest) bool {
	if cc <= c.lastCounter || !r.IsReplica() || int(r) >= c.n {
		return false
	}
	m := c.pending[cc]
	if _, again := m[r]; !again {
		if c.held[r] >= maxPendingVotes && !c.dropOldest(r, cc) {
			return false
		}
		c.held[r]++
	}
	if m == nil {
		m = make(map[ids.ProcessID]authn.Digest)
		c.pending[cc] = m
	}
	m[r] = digest

	if len(m) < c.n {
		return false
	}
	// All replicas reported; stable only if the digests all match.
	first := true
	var want authn.Digest
	for _, d := range m {
		if first {
			want = d
			first = false
			continue
		}
		if d != want {
			return false
		}
	}
	c.lastCounter = cc
	c.lastStableSeq = cc * uint64(c.Interval)
	c.lastStableDigest = want
	// Prune every pending exchange at or below the new stable counter: a
	// boundary crossed while a replica was down never completes (its vote is
	// gone for good) and would otherwise linger forever.
	c.prune(cc)
	return true
}

// dropOldest removes r's vote at its lowest pending counter when that lies
// below cc, making room for r's vote at cc; it reports whether it did.
func (c *CheckpointState) dropOldest(r ids.ProcessID, cc uint64) bool {
	oldest, found := cc, false
	for k, m := range c.pending {
		if _, ok := m[r]; ok && k < oldest {
			oldest, found = k, true
		}
	}
	if !found {
		return false
	}
	m := c.pending[oldest]
	delete(m, r)
	if len(m) == 0 {
		delete(c.pending, oldest)
	}
	c.held[r]--
	return true
}

// prune drops every pending exchange at or below counter cc.
func (c *CheckpointState) prune(cc uint64) {
	for k, m := range c.pending {
		if k > cc {
			continue
		}
		for r := range m {
			c.held[r]--
		}
		delete(c.pending, k)
	}
}

// AdoptStable installs a transferred stable checkpoint (checkpoint state
// transfer, internal/statesync): a recovering replica that accepted an
// f+1-agreed snapshot at counter cc adopts it as its last stable checkpoint
// so garbage collection and abort reports line up with the live replicas.
// Older adoptions than the current stable checkpoint are ignored.
func (c *CheckpointState) AdoptStable(cc uint64, digest authn.Digest) {
	if cc <= c.lastCounter {
		return
	}
	c.lastCounter = cc
	c.lastStableSeq = cc * uint64(c.Interval)
	c.lastStableDigest = digest
	c.prune(cc)
}

// Reset clears all checkpoint state; used when a new Abstract instance is
// initialized from an init history.
func (c *CheckpointState) Reset() {
	c.lastStableSeq = 0
	c.lastStableDigest = authn.Digest{}
	c.lastCounter = 0
	c.pending = make(map[uint64]map[ids.ProcessID]authn.Digest)
	c.held = make(map[ids.ProcessID]int)
}
