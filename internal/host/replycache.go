package host

import "abstractbft/internal/ids"

// replyRing is one client's reply cache: the `width` highest-timestamped
// replies, keyed by request timestamp. The per-client timestamp window
// (Config.TimestampWindow) accepts out-of-order timestamps from pipelining
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
// The ring is circular and kept sorted by timestamp from head on: a client's
// timestamps arrive in (nearly) increasing order, so an insert lands at or
// next to the top and evicting the smallest is advancing head — constant
// work per request whatever the width.
type replyRing struct {
	ts      []uint64
	replies [][]byte
	// head is the slot of the smallest cached timestamp, n the number of
	// cached entries; the k-th smallest sits in slot (head+k) mod width.
	head, n int
}

func newReplyRing(width int) *replyRing {
	if width < 1 {
		width = 1
	}
	return &replyRing{
		ts:      make([]uint64, width),
		replies: make([][]byte, width),
	}
}

// slot returns the storage index of the k-th smallest cached timestamp.
func (r *replyRing) slot(k int) int { return (r.head + k) % len(r.ts) }

// add records the reply for the request at timestamp ts, evicting the
// smallest cached timestamp when full (a ts older than everything cached is
// dropped). An existing entry for the same timestamp is overwritten in
// place: a speculative rollback can re-execute a request after an adopted
// prefix changed, and serving the stale pre-rollback reply to a
// retransmission would leave the client unable to assemble matching RESPs.
func (r *replyRing) add(ts uint64, reply []byte) {
	// i is the rank ts takes: the entries from i on have timestamps >= ts.
	i := r.n
	for i > 0 && r.ts[r.slot(i-1)] >= ts {
		i--
	}
	if i < r.n && r.ts[r.slot(i)] == ts {
		r.replies[r.slot(i)] = reply
		return
	}
	if r.n == len(r.ts) {
		if i == 0 {
			// Older than everything cached: the set of top-width timestamps
			// is unchanged.
			return
		}
		r.head = r.slot(1)
		r.n--
		i--
	}
	// Shift the entries above the insert rank up by one (none when ts is the
	// new maximum).
	for k := r.n; k > i; k-- {
		r.ts[r.slot(k)], r.replies[r.slot(k)] = r.ts[r.slot(k-1)], r.replies[r.slot(k-1)]
	}
	r.ts[r.slot(i)], r.replies[r.slot(i)] = ts, reply
	r.n++
}

// entries returns the cached (timestamp, reply) pairs sorted by timestamp —
// the canonical form checkpoint snapshots carry so a restarted replica can
// restore its reply caches. Runs for every client at every checkpoint
// boundary.
func (r *replyRing) entries() ([]uint64, [][]byte) {
	ts := make([]uint64, r.n)
	replies := make([][]byte, r.n)
	for k := range ts {
		ts[k], replies[k] = r.ts[r.slot(k)], r.replies[r.slot(k)]
	}
	return ts, replies
}

// clone deep-copies the ring (reply slices are shared; they are never
// mutated in place).
func (r *replyRing) clone() *replyRing {
	return &replyRing{
		ts:      append([]uint64(nil), r.ts...),
		replies: append([][]byte(nil), r.replies...),
		head:    r.head,
		n:       r.n,
	}
}

// cloneRings copies a per-client ring map (activation snapshots, so rolled
// back speculative tails restore the rings along with the windows — ring
// contents must stay a pure function of the applied prefix, or checkpoint
// snapshot digests would disagree across replicas whose speculative tails
// differed).
func cloneRings(rs map[ids.ProcessID]*replyRing) map[ids.ProcessID]*replyRing {
	out := make(map[ids.ProcessID]*replyRing, len(rs))
	for c, r := range rs {
		out[c] = r.clone()
	}
	return out
}

// get returns the cached reply for timestamp ts. Retransmissions name recent
// requests, so the scan starts at the top.
func (r *replyRing) get(ts uint64) ([]byte, bool) {
	for k := r.n - 1; k >= 0; k-- {
		switch s := r.slot(k); {
		case r.ts[s] == ts:
			return r.replies[s], true
		case r.ts[s] < ts:
			return nil, false
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
		ring = newReplyRing(normalizeWindow(h.cfg.TimestampWindow))
		h.lastReply[c] = ring
	}
	return ring
}
