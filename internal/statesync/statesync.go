// Package statesync implements the checkpoint state-transfer and recovery
// plane: serialized application snapshots taken at checkpoint boundaries, the
// FETCH-STATE/STATE transfer protocol a lagging or freshly restarted replica
// uses to catch up from its peers, and the f+1 digest-agreement rule under
// which transferred state is accepted.
//
// The paper's lightweight checkpoint subprotocol (§4.2.4) agrees on stable
// checkpoint digests but never materializes the state behind them: histories
// grow without bound and a replica that missed the requests below an adopted
// base checkpoint can never fill the gap. This package closes that loop:
//
//   - Snapshot is the serialized application state at a checkpoint
//     boundary, keyed by the position it covers and the digest chain of the
//     request history up to it.
//   - Store retains the most recent snapshots on every replica, each as a
//     frozen view of the application until a peer asks for it; the host
//     garbage-collects logged requests and digest prefixes below the last
//     stable checkpoint once a snapshot covers them, bounding memory for
//     long runs.
//   - FetchState/State are the transfer messages (FETCH-STATE and STATE);
//     they work over any transport.Endpoint, and the binary codec
//     (internal/transport/wirecodec) encodes them field by field.
//   - Collector aggregates STATE responses and accepts a snapshot only when
//     f+1 replicas agree on (Seq, HistDigest, AppDigest) — at least one
//     correct replica then vouches for the state — and the serialized bytes
//     actually hash to the agreed AppDigest, so a lying peer inside an
//     honest group cannot substitute a forged state.
package statesync

import (
	"encoding/binary"
	"sort"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// ClientWindow is one client's timestamp-window high-water mark at a
// checkpoint boundary: the highest request timestamp of the client in the
// covered prefix, plus the bitmask of lower window timestamps that also
// appear (bit d set means High-d was applied). Snapshots carry these so a
// restarted replica rejects retransmissions of requests from below the
// adopted boundary — without them, a client retransmitting such a request
// would get it re-executed, diverging the restored history.
type ClientWindow struct {
	Client ids.ProcessID
	High   uint64
	Mask   uint64
}

// ClientRing is one client's reply-cache contents at a checkpoint boundary:
// the (timestamp, reply) pairs of the client's last timestamp-window-width
// executed requests in the covered prefix. Snapshots carry these so a
// restarted replica serves retransmissions of pre-snapshot requests from
// cache like its live peers do — without them, the one replica with an empty
// ring starves the all-replica commit rule and pushes the retransmitting
// client into the panicking machinery (and a re-execution on the next
// instance). Ring contents are a deterministic function of the applied
// request sequence, so replicas that executed the same prefix agree on them,
// and they are covered by the snapshot's AppDigest.
type ClientRing struct {
	Client ids.ProcessID
	// Timestamps and Replies are parallel, sorted by timestamp.
	Timestamps []uint64
	Replies    [][]byte
}

// EncodeRings serializes reply rings canonically (sorted by client, entries
// sorted by timestamp, fixed-width length prefixes) so equal ring sets fold
// into equal snapshot digests across replicas.
func EncodeRings(rs []ClientRing) []byte {
	sorted := append([]ClientRing(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Client < sorted[j].Client })
	size := 4
	for _, r := range sorted {
		size += 8 + 12*len(r.Timestamps)
		for _, reply := range r.Replies {
			size += len(reply)
		}
	}
	buf := make([]byte, 0, size)
	var n [8]byte
	binary.BigEndian.PutUint32(n[:4], uint32(len(sorted)))
	buf = append(buf, n[:4]...)
	for _, r := range sorted {
		binary.BigEndian.PutUint32(n[:4], uint32(r.Client))
		buf = append(buf, n[:4]...)
		binary.BigEndian.PutUint32(n[:4], uint32(len(r.Timestamps)))
		buf = append(buf, n[:4]...)
		for i, ts := range r.Timestamps {
			binary.BigEndian.PutUint64(n[:], ts)
			buf = append(buf, n[:]...)
			var reply []byte
			if i < len(r.Replies) {
				reply = r.Replies[i]
			}
			binary.BigEndian.PutUint32(n[:4], uint32(len(reply)))
			buf = append(buf, n[:4]...)
			buf = append(buf, reply...)
		}
	}
	return buf
}

// EncodeWindows serializes windows canonically (sorted by client, fixed-width
// big-endian fields) so equal window sets serialize identically across
// replicas and can be folded into the snapshot's agreed digest.
func EncodeWindows(ws []ClientWindow) []byte {
	sorted := append([]ClientWindow(nil), ws...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Client < sorted[j].Client })
	buf := make([]byte, 4, 4+20*len(sorted))
	binary.BigEndian.PutUint32(buf, uint32(len(sorted)))
	var rec [20]byte
	for _, w := range sorted {
		binary.BigEndian.PutUint32(rec[:4], uint32(w.Client))
		binary.BigEndian.PutUint64(rec[4:12], w.High)
		binary.BigEndian.PutUint64(rec[12:], w.Mask)
		buf = append(buf, rec[:]...)
	}
	return buf
}

// Snapshot is the serialized replica state at one checkpoint boundary.
type Snapshot struct {
	// Seq is the absolute number of requests the snapshot covers: the
	// application state is the result of executing the first Seq requests of
	// the (merged) history.
	Seq uint64
	// HistDigest is the digest chain fold over the request digests of the
	// covered prefix — the value the lightweight checkpoint subprotocol
	// agrees on at this boundary.
	HistDigest authn.Digest
	// AppDigest is the digest of the snapshot payload (PayloadDigest over
	// AppState, Windows and Rings); transfer acceptance agrees on it before
	// trusting any of them. A replica capturing its own boundary state
	// leaves it zero and sets Frozen in place of AppState; its Store fills
	// both in when the snapshot is first read out, so every snapshot that
	// leaves a Store or NewSnapshot carries them.
	AppDigest authn.Digest
	// AppState is the serialized application state
	// (app.Application.Snapshot).
	AppState []byte
	// Frozen is the application as frozen at the boundary, on a snapshot
	// between its capture and its first read-out of a Store: what AppState
	// will be serialized from. It is not part of the snapshot's identity or
	// wire form, and no snapshot a Store hands out carries it.
	Frozen app.View
	// Windows are the per-client timestamp-window high-water marks of the
	// covered prefix. They are a deterministic function of the applied
	// request sequence, so replicas that executed the same prefix agree on
	// them, and they are covered by AppDigest, so a Byzantine responder
	// cannot deny service to chosen clients by forging high marks.
	Windows []ClientWindow
	// Rings are the per-client reply-cache contents of the covered prefix
	// (deterministic and digest-covered like Windows); a restarted replica
	// restores them so retransmissions of pre-snapshot requests are served
	// from cache instead of starving the all-replica commit rule.
	Rings []ClientRing
	// Stripped marks a digest-only copy of the snapshot (the non-designated
	// responders of the digest-first handshake): the identity fields vouch
	// for the payload without carrying it. An explicit flag — rather than
	// len(AppState) — because an application may legitimately serialize to
	// zero bytes.
	Stripped bool
}

// NewSnapshot assembles a snapshot, computing the payload digest over the
// serialized application state and the canonical window and ring encodings.
func NewSnapshot(seq uint64, histDigest authn.Digest, appState []byte, windows []ClientWindow, rings []ClientRing) Snapshot {
	s := Snapshot{Seq: seq, HistDigest: histDigest, AppState: appState, Windows: windows, Rings: rings}
	s.AppDigest = s.PayloadDigest()
	return s
}

// PayloadDigest returns the digest of the snapshot's transferable payload:
// the serialized application bytes and the canonical window and ring
// encodings. It is the value f+1 replicas must agree on (as AppDigest)
// before the payload of any single responder is trusted.
func (s Snapshot) PayloadDigest() authn.Digest {
	return authn.HashAll(s.AppState, EncodeWindows(s.Windows), EncodeRings(s.Rings))
}

// HasPayload reports whether the snapshot carries its transferable payload
// (digest-only responses of the digest-first handshake do not).
func (s Snapshot) HasPayload() bool { return !s.Stripped }

// StripPayload returns the snapshot's identity without the payload: the
// digest-first handshake has every non-designated responder vouch with
// (Seq, HistDigest, AppDigest) alone, so a FETCH-STATE costs the cluster one
// payload transfer instead of 3f.
func (s Snapshot) StripPayload() Snapshot {
	s.AppState = nil
	s.Windows = nil
	s.Rings = nil
	s.Stripped = true
	return s
}

// FetchState is the FETCH-STATE message: a lagging or restarted replica asks
// a peer for its snapshot and the history suffix beyond it. The peer answers
// the envelope's sender.
type FetchState struct {
	// Instance selects the Abstract instance whose history the suffix should
	// come from; 0 asks for the responder's active instance.
	Instance core.InstanceID
	// Seq, when non-zero, asks for the responder's snapshot at the highest
	// checkpoint boundary at or below Seq (a replica filling positions below
	// an adopted base checkpoint, or aligning with a restored merge
	// boundary); 0 asks for the snapshot at the responder's last stable
	// checkpoint.
	Seq uint64
	// BodiesFrom designates the one replica asked to ship the snapshot
	// payload (serialized application state and timestamp windows); every
	// other responder answers with digests only, so the transfer costs
	// O(state size) instead of O(3f × state size). The fetcher rotates the
	// designation on retry — and immediately on a payload hash mismatch —
	// so a crashed or lying designated peer only delays the transfer.
	BodiesFrom ids.ProcessID
}

// State is the STATE message answering a FetchState: the responder's
// snapshot plus the history suffix (digests and the request bodies it knows)
// from the snapshot position to the end of its applied history. It is the
// vote of the envelope's sender.
type State struct {
	// Instance is the instance the suffix belongs to.
	Instance core.InstanceID
	// BodiesFrom echoes the designation of the FETCH-STATE being answered,
	// so the fetcher can tell a designated payload answer from a stale
	// digest-only response of a freshly designated peer (designations rotate
	// while responses are in flight).
	BodiesFrom ids.ProcessID
	// Snap is the responder's snapshot; the zero snapshot (Seq 0) means the
	// responder has no stable checkpoint yet and the suffix starts at the
	// beginning of the history.
	Snap Snapshot
	// SuffixDigests holds the digests of the requests applied after
	// Snap.Seq, in history order: the request at absolute position
	// Snap.Seq+i has digest SuffixDigests[i].
	SuffixDigests history.DigestHistory
	// SuffixRequests carries the request bodies the responder knows for the
	// suffix positions; the fetcher matches them to the agreed digests, so
	// order and completeness are not trusted.
	SuffixRequests []msg.Request
}
