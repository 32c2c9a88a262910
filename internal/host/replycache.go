package host

import (
	"abstractbft/internal/core"
	"abstractbft/internal/ids"
)

// replyRing is one client's reply cache: the `width` highest-timestamped
// replies, keyed by request timestamp. The per-client timestamp window
// (core.DefaultTimestampWindow) accepts out-of-order timestamps from pipelining
// clients, so a retransmission may name a request that was overtaken by up to
// width-1 later requests of the same client; a single last-reply slot would
// miss it and push the client into the panicking machinery. The ring is as
// wide as the timestamp window, so every retransmission the window can admit
// is served from cache. It also bounds reply memory per client, which the
// history garbage collector relies on for long runs.
//
// Eviction is by smallest timestamp, NOT insertion order: the cached set is
// then a pure function of the applied prefix (the top-width timestamps with
// their latest replies), identical across replicas that executed the same
// prefix regardless of arrival interleavings or rollback re-executions.
// Checkpoint snapshots fold the rings into the f+1-agreed payload digest, so
// any layout-dependent eviction would make equal replicas disagree.
//
// The entries live sorted by timestamp in a window that slides up its backing
// arrays: a client's timestamps arrive in (nearly) increasing order, so an
// insert is an append at the top and evicting the smallest is advancing the
// window's start — constant work per request whatever the width. Storage
// below the window is abandoned, never rewritten; when the arrays run out the
// window moves to fresh ones of twice its length, so steady state allocates
// one pair of arrays per `width` requests.
//
// That write discipline is what makes checkpoint capture free: capture hands
// out the window itself, and every later append lands above it. Only a write
// inside the window (an out-of-order insert, or a rollback re-executing a
// cached timestamp) could disturb a captured view, and those move the ring to
// fresh arrays first.
type replyRing struct {
	width   int
	ts      []uint64
	replies [][]byte
	// captured records that a checkpoint snapshot aliases the current
	// arrays up to the window's end at capture time.
	captured bool
}

func newReplyRing(width int) *replyRing {
	if width < 1 {
		width = 1
	}
	return &replyRing{width: width}
}

// move copies the window into fresh arrays with room for as many appends as
// it holds entries; no snapshot aliases the new arrays.
func (r *replyRing) move() {
	c := 2 * len(r.ts)
	if c < 4 {
		c = 4
	}
	r.ts = append(make([]uint64, 0, c), r.ts...)
	r.replies = append(make([][]byte, 0, c), r.replies...)
	r.captured = false
}

// add records the reply for the request at timestamp ts, evicting the
// smallest cached timestamp when full (a ts older than everything cached is
// dropped). An existing entry for the same timestamp is overwritten: a
// speculative rollback can re-execute a request after an adopted prefix
// changed, and serving the stale pre-rollback reply to a retransmission would
// leave the client unable to assemble matching RESPs.
func (r *replyRing) add(ts uint64, reply []byte) {
	// i is the rank ts takes: the entries from i on have timestamps >= ts.
	n := len(r.ts)
	i := n
	for i > 0 && r.ts[i-1] >= ts {
		i--
	}
	if i < n && r.ts[i] == ts {
		if r.captured {
			r.move()
		}
		r.replies[i] = reply
		return
	}
	if n == r.width {
		if i == 0 {
			// Older than everything cached: the set of top-width timestamps
			// is unchanged.
			return
		}
		r.ts, r.replies = r.ts[1:], r.replies[1:]
		i--
		n--
	}
	if (i < n && r.captured) || n == cap(r.ts) {
		// An insert inside a captured window, or no room left above it.
		r.move()
	}
	// Open rank i by shifting the entries above it up by one (none when ts
	// is the new maximum).
	r.ts, r.replies = append(r.ts, 0), append(r.replies, nil)
	copy(r.ts[i+1:], r.ts[i:n])
	copy(r.replies[i+1:], r.replies[i:n])
	r.ts[i], r.replies[i] = ts, reply
}

// capture returns the cached (timestamp, reply) pairs sorted by timestamp —
// the canonical form checkpoint snapshots carry so a restarted replica can
// restore its reply caches — without copying them: the returned slices are
// the ring's window, read-only from here on (see replyRing).
func (r *replyRing) capture() ([]uint64, [][]byte) {
	n := len(r.ts)
	r.captured = n > 0
	return r.ts[:n:n], r.replies[:n:n]
}

// get returns the cached reply for timestamp ts. Retransmissions name recent
// requests, so the scan starts at the top.
func (r *replyRing) get(ts uint64) ([]byte, bool) {
	for k := len(r.ts) - 1; k >= 0 && r.ts[k] >= ts; k-- {
		if r.ts[k] == ts {
			return r.replies[k], true
		}
	}
	return nil, false
}

// replyRingFor returns (creating on first use) the reply ring of one client,
// sized to the effective timestamp window width — the same normalization the
// instance timestamp windows use, so every retransmission the window can
// admit has a cached reply.
func (h *Host) replyRingFor(c ids.ProcessID) *replyRing {
	ring, ok := h.lastReply[c]
	if !ok {
		ring = newReplyRing(core.DefaultTimestampWindow)
		h.lastReply[c] = ring
	}
	return ring
}
