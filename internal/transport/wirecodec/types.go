package wirecodec

import (
	"fmt"

	"abstractbft/internal/authn"
	"abstractbft/internal/backup"
	"abstractbft/internal/chain"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/msg"
	"abstractbft/internal/pbft"
	"abstractbft/internal/quorum"
	"abstractbft/internal/shard"
	"abstractbft/internal/statesync"
	"abstractbft/internal/transport"
	"abstractbft/internal/zlight"
)

// Wire type tags. The table is append-only: a tag, once assigned, never
// changes meaning, so benchmark trajectories and mixed-build test clusters
// stay comparable. Adding a type means: assign the next free tag in its
// block, add an arm to appendPayload and decodePayload, and add a populated
// instance to wirePayloads() in transport's wire_roundtrip_test.go — the
// abstractlint wirereg check fails until the arm is audited, and the audit
// fails until the type round-trips.
const (
	// Transport-level types. Tag 4 was the envelope-level trace-context
	// marker (only a request carries a trace context now); it is reserved,
	// never reused.
	tagPacked        uint16 = 1
	tagConnChallenge uint16 = 2
	tagConnProof     uint16 = 3

	// Protocol request/ordering planes. Tags 14 and 16 were Quorum's and
	// Backup's own REQ types (every REQ is core.RequestMessage, tag 10);
	// they are reserved, never reused.
	tagRequest       uint16 = 10
	tagZLightOrder   uint16 = 11
	tagChainMessage  uint16 = 12
	tagChainBatch    uint16 = 13
	tagQuorumBatch   uint16 = 15
	tagBackupWrapped uint16 = 17

	// The wrapped PBFT engine. Tags 20 and 24 were pbft.Request and
	// pbft.Reply, which nothing sends any more; they are reserved, never
	// reused.
	tagPBFTPrePrepare uint16 = 21
	tagPBFTPrepare    uint16 = 22
	tagPBFTCommit     uint16 = 23
	tagPBFTViewChange uint16 = 25
	tagPBFTNewView    uint16 = 26

	// The composition layer (panicking, checkpoints, fetch, RESP, init
	// histories).
	tagPanic      uint16 = 30
	tagAbortReply uint16 = 31
	tagCheckpoint uint16 = 32
	tagFetchReq   uint16 = 33
	tagFetchResp  uint16 = 34
	tagResp       uint16 = 35
	tagInit       uint16 = 36

	// The state-transfer plane.
	tagFetchState uint16 = 40
	tagState      uint16 = 41

	// The sharded plane.
	tagMark        uint16 = 50
	tagMergedQuery uint16 = 51
	tagMergedState uint16 = 52
)

// Composite field helpers. Encoders append to the caller's buffer; decoders
// consume from the sticky-error reader.

// Request flags byte. Bit 0 carries ReadOnly in exactly the position the old
// bool byte used (an untraced request's encoding is byte-identical to the
// pre-tracing wire format); bit 1 marks a trace context, whose 16 bytes
// follow the flags byte only when set. Unknown bits are ignored on decode.
const (
	reqFlagReadOnly byte = 1 << 0
	reqFlagTraced   byte = 1 << 1
)

//abstractbft:noalloc
func appendRequest(b []byte, r msg.Request) []byte {
	b = appendID(b, r.Client)
	b = appendU64(b, r.Timestamp)
	var flags byte
	if r.ReadOnly {
		flags |= reqFlagReadOnly
	}
	if r.Trace.Sampled() {
		flags |= reqFlagTraced
	}
	b = appendU8(b, flags)
	if r.Trace.Sampled() {
		b = appendU64(b, r.Trace.TraceID)
		b = appendU64(b, r.Trace.Parent)
	}
	return appendBytes(b, r.Command)
}

func decodeRequest(r *reader) msg.Request {
	var own []byte
	return decodeRequestIn(r, &own, 1)
}

// decodeRequestIn decodes one of a run of requests whose commands share
// *slab (see reader.bytesIn).
func decodeRequestIn(r *reader, slab *[]byte, more int) msg.Request {
	var out msg.Request
	out.Client = r.id()
	out.Timestamp = r.u64()
	flags := r.u8()
	out.ReadOnly = flags&reqFlagReadOnly != 0
	if flags&reqFlagTraced != 0 {
		tid, parent := r.u64(), r.u64()
		// A zero trace ID means unsampled; dropping the context here keeps
		// the codec canonical on its own output (re-marshalling an accepted
		// input always reproduces the decoded value).
		if tid != 0 {
			out.Trace.TraceID, out.Trace.Parent = tid, parent
		}
	}
	out.Command = r.bytesIn(slab, more)
	return out
}

//abstractbft:noalloc
func appendRequests(b []byte, rs []msg.Request) []byte {
	b = appendU32(b, uint32(len(rs)))
	for _, req := range rs {
		b = appendRequest(b, req)
	}
	return b
}

func decodeRequests(r *reader) []msg.Request {
	return decodeRequestRun(r, r.count())
}

// decodeRequestRun decodes n requests in a row, their commands out of shared
// slabs.
func decodeRequestRun(r *reader, n int) []msg.Request {
	if n == 0 {
		return nil
	}
	out := make([]msg.Request, 0, sliceCap(n, 17))
	var commands []byte
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, decodeRequestIn(r, &commands, n-i))
	}
	if r.err != nil {
		return nil
	}
	return out
}

//abstractbft:noalloc
func appendBatch(b []byte, batch msg.Batch) []byte {
	return appendRequests(b, batch.Requests)
}

func decodeBatch(r *reader) msg.Batch {
	return msg.Batch{Requests: decodeRequests(r)}
}

//abstractbft:noalloc
func appendAuth(b []byte, a authn.Authenticator) []byte {
	b = appendID(b, a.Sender)
	b = appendU32(b, uint32(len(a.Entries)))
	for _, e := range a.Entries {
		b = appendID(b, e.Receiver)
		b = appendMAC(b, e.MAC)
	}
	return b
}

func decodeAuth(r *reader) authn.Authenticator {
	var own []authn.AuthEntry
	return decodeAuthIn(r, &own, 1)
}

// decodeAuthIn decodes one of a run of authenticators (an ORDER's, one per
// request) whose entries share *slab: more counts the authenticators still to
// come, this one included, and a slab that runs out is replaced by one sized
// as if they all had this many entries.
func decodeAuthIn(r *reader, slab *[]authn.AuthEntry, more int) authn.Authenticator {
	var a authn.Authenticator
	a.Sender = r.id()
	n := r.count()
	if n == 0 {
		return a
	}
	if n > cap(*slab)-len(*slab) {
		// Either factor can be as large as the frame: clamp before multiplying.
		*slab = make([]authn.AuthEntry, 0, sliceCap(sliceCap(n, 36)*sliceCap(more, 36), 36))
	}
	start := len(*slab)
	for i := 0; i < n && r.err == nil; i++ {
		*slab = append(*slab, authn.AuthEntry{Receiver: r.id(), MAC: r.mac()})
	}
	if r.err == nil {
		a.Entries = (*slab)[start:len(*slab):len(*slab)]
	}
	return a
}

//abstractbft:noalloc
func appendAuths(b []byte, as []authn.Authenticator) []byte {
	b = appendU32(b, uint32(len(as)))
	for _, a := range as {
		b = appendAuth(b, a)
	}
	return b
}

func decodeAuths(r *reader) []authn.Authenticator {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]authn.Authenticator, 0, sliceCap(n, 8))
	var entries []authn.AuthEntry
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, decodeAuthIn(r, &entries, n-i))
	}
	if r.err != nil {
		return nil
	}
	return out
}

//abstractbft:noalloc
func appendChainAuth(b []byte, ca authn.ChainAuthenticator) []byte {
	b = appendU32(b, uint32(len(ca.Entries)))
	for _, e := range ca.Entries {
		b = appendID(b, e.Signer)
		b = appendID(b, e.Receiver)
		b = appendMAC(b, e.MAC)
	}
	return b
}

func decodeChainAuth(r *reader) authn.ChainAuthenticator {
	var ca authn.ChainAuthenticator
	n := r.count()
	if n == 0 {
		return ca
	}
	ca.Entries = make([]authn.ChainAuthEntry, 0, sliceCap(n, 40))
	for i := 0; i < n && r.err == nil; i++ {
		ca.Entries = append(ca.Entries, authn.ChainAuthEntry{Signer: r.id(), Receiver: r.id(), MAC: r.mac()})
	}
	if r.err != nil {
		ca.Entries = nil
	}
	return ca
}

//abstractbft:noalloc
func appendChainAuths(b []byte, cas []authn.ChainAuthenticator) []byte {
	b = appendU32(b, uint32(len(cas)))
	for _, ca := range cas {
		b = appendChainAuth(b, ca)
	}
	return b
}

func decodeChainAuths(r *reader) []authn.ChainAuthenticator {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]authn.ChainAuthenticator, 0, sliceCap(n, 4))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, decodeChainAuth(r))
	}
	if r.err != nil {
		return nil
	}
	return out
}

//abstractbft:noalloc
func appendDigests(b []byte, ds []authn.Digest) []byte {
	b = appendU32(b, uint32(len(ds)))
	for _, d := range ds {
		b = appendDigest(b, d)
	}
	return b
}

func decodeDigests(r *reader) []authn.Digest {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]authn.Digest, 0, sliceCap(n, authn.DigestSize))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.digest())
	}
	if r.err != nil {
		return nil
	}
	return out
}

//abstractbft:noalloc
func appendDigestHistory(b []byte, dh history.DigestHistory) []byte {
	return appendDigests(b, dh)
}

func decodeDigestHistory(r *reader) history.DigestHistory {
	ds := decodeDigests(r)
	if ds == nil {
		return nil
	}
	return history.DigestHistory(ds)
}

//abstractbft:noalloc
func appendExtract(b []byte, e history.ExtractResult) []byte {
	b = appendU64(b, e.BaseSeq)
	b = appendDigest(b, e.BaseDigest)
	return appendDigestHistory(b, e.Suffix)
}

func decodeExtract(r *reader) history.ExtractResult {
	var e history.ExtractResult
	e.BaseSeq = r.u64()
	e.BaseDigest = r.digest()
	e.Suffix = decodeDigestHistory(r)
	return e
}

//abstractbft:noalloc
func appendReport(b []byte, rep history.ReplicaReport) []byte {
	b = appendU64(b, rep.CheckpointSeq)
	b = appendDigest(b, rep.CheckpointDigest)
	return appendDigestHistory(b, rep.Suffix)
}

func decodeReport(r *reader) history.ReplicaReport {
	var rep history.ReplicaReport
	rep.CheckpointSeq = r.u64()
	rep.CheckpointDigest = r.digest()
	rep.Suffix = decodeDigestHistory(r)
	return rep
}

//abstractbft:noalloc
func appendAbort(b []byte, a core.AbortMessage) []byte {
	b = appendU64(b, uint64(a.Instance))
	b = appendID(b, a.Replica)
	b = appendU64(b, a.Timestamp)
	b = appendU64(b, uint64(a.Next))
	b = appendU32(b, a.Flags)
	return appendReport(b, a.Report)
}

func decodeAbort(r *reader) core.AbortMessage {
	var a core.AbortMessage
	a.Instance = core.InstanceID(r.u64())
	a.Replica = r.id()
	a.Timestamp = r.u64()
	a.Next = core.InstanceID(r.u64())
	a.Flags = r.u32()
	a.Report = decodeReport(r)
	return a
}

//abstractbft:noalloc
func appendSignedAbort(b []byte, s core.SignedAbort) []byte {
	b = appendAbort(b, s.Abort)
	return appendBytes(b, s.Sig)
}

func decodeSignedAbort(r *reader) core.SignedAbort {
	var s core.SignedAbort
	s.Abort = decodeAbort(r)
	if sig := r.bytes(); sig != nil {
		s.Sig = authn.Signature(sig)
	}
	return s
}

// appendInit encodes an init history.
//
//abstractbft:noalloc
func appendInit(b []byte, init *core.InitHistory) []byte {
	b = appendU64(b, uint64(init.From))
	b = appendU64(b, uint64(init.For))
	b = appendExtract(b, init.Extract)
	b = appendU32(b, uint32(len(init.Proof)))
	for _, s := range init.Proof {
		b = appendSignedAbort(b, s)
	}
	return appendRequests(b, init.Requests)
}

func decodeInit(r *reader) core.InitHistory {
	var init core.InitHistory
	init.From = core.InstanceID(r.u64())
	init.For = core.InstanceID(r.u64())
	init.Extract = decodeExtract(r)
	n := r.count()
	if n > 0 {
		init.Proof = make([]core.SignedAbort, 0, sliceCap(n, 80))
		for i := 0; i < n && r.err == nil; i++ {
			init.Proof = append(init.Proof, decodeSignedAbort(r))
		}
	}
	init.Requests = decodeRequests(r)
	return init
}

//abstractbft:noalloc
func appendSnapshot(b []byte, s statesync.Snapshot) []byte {
	b = appendU64(b, s.Seq)
	b = appendDigest(b, s.HistDigest)
	b = appendDigest(b, s.AppDigest)
	b = appendBytes(b, s.AppState)
	b = appendU32(b, uint32(len(s.Windows)))
	for _, w := range s.Windows {
		b = appendID(b, w.Client)
		b = appendU64(b, w.High)
		b = appendU64(b, w.Mask)
	}
	b = appendU32(b, uint32(len(s.Rings)))
	for _, ring := range s.Rings {
		b = appendID(b, ring.Client)
		b = appendU64s(b, ring.Timestamps)
		b = appendU32(b, uint32(len(ring.Replies)))
		for _, rep := range ring.Replies {
			b = appendBytes(b, rep)
		}
	}
	return appendBool(b, s.Stripped)
}

func decodeSnapshot(r *reader) statesync.Snapshot {
	var s statesync.Snapshot
	s.Seq = r.u64()
	s.HistDigest = r.digest()
	s.AppDigest = r.digest()
	s.AppState = r.bytes()
	if n := r.count(); n > 0 {
		s.Windows = make([]statesync.ClientWindow, 0, sliceCap(n, 20))
		for i := 0; i < n && r.err == nil; i++ {
			s.Windows = append(s.Windows, statesync.ClientWindow{Client: r.id(), High: r.u64(), Mask: r.u64()})
		}
	}
	if n := r.count(); n > 0 {
		s.Rings = make([]statesync.ClientRing, 0, sliceCap(n, 12))
		for i := 0; i < n && r.err == nil; i++ {
			ring := statesync.ClientRing{Client: r.id(), Timestamps: r.u64s()}
			if m := r.count(); m > 0 {
				ring.Replies = make([][]byte, 0, sliceCap(m, 4))
				for j := 0; j < m && r.err == nil; j++ {
					ring.Replies = append(ring.Replies, r.bytes())
				}
			}
			s.Rings = append(s.Rings, ring)
		}
	}
	s.Stripped = r.bool()
	if r.err != nil {
		return statesync.Snapshot{}
	}
	return s
}

//abstractbft:noalloc
func appendPreparedEntries(b []byte, ps []pbft.PreparedEntry) []byte {
	b = appendU32(b, uint32(len(ps)))
	for _, p := range ps {
		b = appendU64(b, p.Seq)
		b = appendU64(b, p.View)
		b = appendDigest(b, p.Digest)
		b = appendRequests(b, p.Batch)
		b = appendAuths(b, p.Auths)
	}
	return b
}

func decodePreparedEntries(r *reader) []pbft.PreparedEntry {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]pbft.PreparedEntry, 0, sliceCap(n, 52))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, pbft.PreparedEntry{Seq: r.u64(), View: r.u64(), Digest: r.digest(), Batch: decodeRequests(r), Auths: decodeAuths(r)})
	}
	if r.err != nil {
		return nil
	}
	return out
}

//abstractbft:noalloc
func appendViewChange(b []byte, vc pbft.ViewChange) []byte {
	b = appendU64(b, vc.NewView)
	b = appendID(b, vc.Replica)
	b = appendU64(b, vc.LastDelivered)
	b = appendPreparedEntries(b, vc.Prepared)
	return appendBytes(b, vc.Sig)
}

func decodeViewChange(r *reader) pbft.ViewChange {
	var vc pbft.ViewChange
	vc.NewView = r.u64()
	vc.Replica = r.id()
	vc.LastDelivered = r.u64()
	vc.Prepared = decodePreparedEntries(r)
	if sig := r.bytes(); sig != nil {
		vc.Sig = authn.Signature(sig)
	}
	return vc
}

//abstractbft:noalloc
func appendPrePrepare(b []byte, pp pbft.PrePrepare) []byte {
	b = appendU64(b, pp.View)
	b = appendU64(b, pp.Seq)
	b = appendRequests(b, pp.Batch)
	b = appendAuths(b, pp.Auths)
	b = appendDigest(b, pp.Digest)
	return appendMAC(b, pp.MAC)
}

func decodePrePrepare(r *reader) pbft.PrePrepare {
	var pp pbft.PrePrepare
	pp.View = r.u64()
	pp.Seq = r.u64()
	pp.Batch = decodeRequests(r)
	pp.Auths = decodeAuths(r)
	pp.Digest = r.digest()
	pp.MAC = r.mac()
	return pp
}

// appendPayload encodes one tagged payload. Its type switch is the registry
// of wire types (the abstractlint wirereg check reads it). Unknown types
// report an error wrapping transport.ErrUnencodable so the TCP writer drops
// the envelope without killing the connection.
//
//abstractbft:noalloc
func appendPayload(b []byte, p any, depth int) ([]byte, error) {
	if depth > maxDepth {
		return b, fmt.Errorf("%w (%w)", ErrDepth, transport.ErrUnencodable) //abstractbft:alloc-ok error path, envelope is dropped
	}
	switch m := p.(type) {
	case *transport.Packed: //wire:noaudit unpacked on receive; audited by TestPackedRoundTrip
		b = appendU16(b, tagPacked)
		b = appendU32(b, uint32(len(m.Payloads)))
		for _, inner := range m.Payloads {
			var err error
			if b, err = appendPayload(b, inner, depth+1); err != nil {
				return b, err
			}
		}
		return b, nil
	case *transport.ConnChallenge:
		b = appendU16(b, tagConnChallenge)
		return appendBytes(b, m.Nonce), nil
	case *transport.ConnProof:
		b = appendU16(b, tagConnProof)
		return appendMAC(b, m.Proof), nil

	case *core.RequestMessage:
		b = appendU16(b, tagRequest)
		b = appendU64(b, uint64(m.Instance))
		b = appendRequest(b, m.Req)
		return appendAuth(b, m.Auth), nil
	case *zlight.OrderMessage:
		b = appendU16(b, tagZLightOrder)
		b = appendU64(b, uint64(m.Instance))
		b = appendBatch(b, m.Batch)
		b = appendU64(b, m.Seq)
		b = appendAuths(b, m.Auths)
		return appendMAC(b, m.PrimaryMAC), nil
	case *chain.Message:
		b = appendU16(b, tagChainMessage)
		b = appendU64(b, uint64(m.Instance))
		b = appendRequest(b, m.Req)
		b = appendU64(b, m.Seq)
		b = appendBool(b, m.HasSeq)
		b = appendDigest(b, m.ReplyDigest)
		b = appendBytes(b, m.Reply)
		b = appendDigest(b, m.HistoryDigest)
		b = appendDigestHistory(b, m.HistoryDigests)
		return appendChainAuth(b, m.CA), nil
	case *chain.BatchMessage:
		b = appendU16(b, tagChainBatch)
		b = appendU64(b, uint64(m.Instance))
		b = appendBatch(b, m.Batch)
		b = appendU64(b, m.Seq)
		b = appendChainAuths(b, m.ClientCAs)
		b = appendDigests(b, m.ReplyDigests)
		b = appendDigest(b, m.HistoryDigest)
		b = appendDigestHistory(b, m.HistoryDigests)
		return appendChainAuth(b, m.CA), nil
	case *quorum.BatchRequestMessage:
		b = appendU16(b, tagQuorumBatch)
		b = appendU64(b, uint64(m.Instance))
		b = appendBatch(b, m.Batch)
		return appendAuth(b, m.Auth), nil
	case *backup.WrappedMessage:
		b = appendU16(b, tagBackupWrapped)
		b = appendU64(b, uint64(m.Instance))
		return appendPayload(b, m.Inner, depth+1)

	case *pbft.PrePrepare:
		b = appendU16(b, tagPBFTPrePrepare)
		return appendPrePrepare(b, *m), nil
	case *pbft.Prepare:
		b = appendU16(b, tagPBFTPrepare)
		b = appendU64(b, m.View)
		b = appendU64(b, m.Seq)
		b = appendDigest(b, m.Digest)
		return appendMAC(b, m.MAC), nil
	case *pbft.Commit:
		b = appendU16(b, tagPBFTCommit)
		b = appendU64(b, m.View)
		b = appendU64(b, m.Seq)
		b = appendDigest(b, m.Digest)
		return appendMAC(b, m.MAC), nil
	case *pbft.ViewChange:
		b = appendU16(b, tagPBFTViewChange)
		return appendViewChange(b, *m), nil
	case *pbft.NewView:
		b = appendU16(b, tagPBFTNewView)
		b = appendU64(b, m.View)
		b = appendU32(b, uint32(len(m.ViewChanges)))
		for _, vc := range m.ViewChanges {
			b = appendViewChange(b, vc)
		}
		b = appendU32(b, uint32(len(m.Proposals)))
		for _, pp := range m.Proposals {
			b = appendPrePrepare(b, pp)
		}
		return b, nil

	case *core.PanicMessage:
		b = appendU16(b, tagPanic)
		b = appendU64(b, uint64(m.Instance))
		return appendU64(b, m.Timestamp), nil
	case *core.AbortReply:
		b = appendU16(b, tagAbortReply)
		b = appendU64(b, uint64(m.Instance))
		b = appendU64(b, m.Timestamp)
		return appendSignedAbort(b, m.Signed), nil
	case *core.CheckpointMessage:
		b = appendU16(b, tagCheckpoint)
		b = appendU64(b, uint64(m.AbstractID))
		b = appendU64(b, m.Counter)
		return appendDigest(b, m.StateDigest), nil
	case *core.FetchRequest:
		b = appendU16(b, tagFetchReq)
		b = appendU64(b, uint64(m.Instance))
		return appendDigests(b, m.Digests), nil
	case *core.FetchResponse:
		b = appendU16(b, tagFetchResp)
		b = appendU64(b, uint64(m.Instance))
		return appendRequests(b, m.Requests), nil
	case *core.RespMessage:
		b = appendU16(b, tagResp)
		b = appendU64(b, uint64(m.Instance))
		b = appendU64(b, m.Timestamp)
		b = appendBytes(b, m.Reply)
		b = appendDigest(b, m.ReplyDigest)
		b = appendDigest(b, m.HistoryDigest)
		b = appendU64(b, m.HistoryLen)
		b = appendDigestHistory(b, m.HistoryDigests)
		return appendMAC(b, m.MAC), nil
	case *core.InitMessage:
		b = appendU16(b, tagInit)
		b = appendU64(b, uint64(m.Instance))
		return appendInit(b, &m.Init), nil

	case *statesync.FetchState:
		b = appendU16(b, tagFetchState)
		b = appendU64(b, uint64(m.Instance))
		b = appendU64(b, m.Seq)
		return appendID(b, m.BodiesFrom), nil
	case *statesync.State:
		b = appendU16(b, tagState)
		b = appendU64(b, uint64(m.Instance))
		b = appendID(b, m.BodiesFrom)
		b = appendSnapshot(b, m.Snap)
		b = appendDigestHistory(b, m.SuffixDigests)
		return appendRequests(b, m.SuffixRequests), nil

	case *shard.Mark:
		b = appendU16(b, tagMark)
		b = appendU32(b, uint32(m.Shard))
		return appendPayload(b, m.Payload, depth+1)
	case *shard.MergedQuery:
		return appendU16(b, tagMergedQuery), nil
	case *shard.MergedState:
		b = appendU16(b, tagMergedState)
		b = appendU64(b, m.Seq)
		b = appendDigest(b, m.Digest)
		return appendMAC(b, m.MAC), nil
	}
	return b, fmt.Errorf("wirecodec: unsupported payload type %T (%w)", p, transport.ErrUnencodable) //abstractbft:alloc-ok error path, envelope is dropped
}

// decodePayload decodes one tagged payload from the reader. On any error the
// reader's sticky error is set and nil is returned.
func decodePayload(r *reader) any {
	if r.depth++; r.depth > maxDepth {
		r.fail(ErrDepth)
		return nil
	}
	defer func() { r.depth-- }()
	tag := r.u16()
	if r.err != nil {
		return nil
	}
	switch tag {
	case tagPacked:
		n := r.count()
		p := &transport.Packed{}
		if n > 0 {
			p.Payloads = make([]any, 0, sliceCap(n, 2))
			for i := 0; i < n && r.err == nil; i++ {
				p.Payloads = append(p.Payloads, decodePayload(r))
			}
		}
		return p
	case tagConnChallenge:
		return &transport.ConnChallenge{Nonce: r.bytes()}
	case tagConnProof:
		return &transport.ConnProof{Proof: r.mac()}

	case tagRequest:
		m := &core.RequestMessage{}
		m.Instance = core.InstanceID(r.u64())
		m.Req = decodeRequest(r)
		m.Auth = decodeAuth(r)
		return m
	case tagZLightOrder:
		m := &zlight.OrderMessage{}
		m.Instance = core.InstanceID(r.u64())
		m.Batch = decodeBatch(r)
		m.Seq = r.u64()
		m.Auths = decodeAuths(r)
		m.PrimaryMAC = r.mac()
		return m
	case tagChainMessage:
		m := &chain.Message{}
		m.Instance = core.InstanceID(r.u64())
		m.Req = decodeRequest(r)
		m.Seq = r.u64()
		m.HasSeq = r.bool()
		m.ReplyDigest = r.digest()
		m.Reply = r.bytes()
		m.HistoryDigest = r.digest()
		m.HistoryDigests = decodeDigestHistory(r)
		m.CA = decodeChainAuth(r)
		return m
	case tagChainBatch:
		m := &chain.BatchMessage{}
		m.Instance = core.InstanceID(r.u64())
		m.Batch = decodeBatch(r)
		m.Seq = r.u64()
		m.ClientCAs = decodeChainAuths(r)
		m.ReplyDigests = decodeDigests(r)
		m.HistoryDigest = r.digest()
		m.HistoryDigests = decodeDigestHistory(r)
		m.CA = decodeChainAuth(r)
		return m
	case tagQuorumBatch:
		m := &quorum.BatchRequestMessage{}
		m.Instance = core.InstanceID(r.u64())
		m.Batch = decodeBatch(r)
		m.Auth = decodeAuth(r)
		return m
	case tagBackupWrapped:
		m := &backup.WrappedMessage{}
		m.Instance = core.InstanceID(r.u64())
		m.Inner = decodePayload(r)
		return m

	case tagPBFTPrePrepare:
		pp := decodePrePrepare(r)
		return &pp
	case tagPBFTPrepare:
		m := &pbft.Prepare{}
		m.View = r.u64()
		m.Seq = r.u64()
		m.Digest = r.digest()
		m.MAC = r.mac()
		return m
	case tagPBFTCommit:
		m := &pbft.Commit{}
		m.View = r.u64()
		m.Seq = r.u64()
		m.Digest = r.digest()
		m.MAC = r.mac()
		return m
	case tagPBFTViewChange:
		vc := decodeViewChange(r)
		return &vc
	case tagPBFTNewView:
		m := &pbft.NewView{}
		m.View = r.u64()
		if n := r.count(); n > 0 {
			m.ViewChanges = make([]pbft.ViewChange, 0, sliceCap(n, 28))
			for i := 0; i < n && r.err == nil; i++ {
				m.ViewChanges = append(m.ViewChanges, decodeViewChange(r))
			}
		}
		if n := r.count(); n > 0 {
			m.Proposals = make([]pbft.PrePrepare, 0, sliceCap(n, 84))
			for i := 0; i < n && r.err == nil; i++ {
				m.Proposals = append(m.Proposals, decodePrePrepare(r))
			}
		}
		return m

	case tagPanic:
		m := &core.PanicMessage{}
		m.Instance = core.InstanceID(r.u64())
		m.Timestamp = r.u64()
		return m
	case tagAbortReply:
		m := &core.AbortReply{}
		m.Instance = core.InstanceID(r.u64())
		m.Timestamp = r.u64()
		m.Signed = decodeSignedAbort(r)
		return m
	case tagCheckpoint:
		m := &core.CheckpointMessage{}
		m.AbstractID = core.InstanceID(r.u64())
		m.Counter = r.u64()
		m.StateDigest = r.digest()
		return m
	case tagFetchReq:
		m := &core.FetchRequest{}
		m.Instance = core.InstanceID(r.u64())
		m.Digests = decodeDigests(r)
		return m
	case tagFetchResp:
		m := &core.FetchResponse{}
		m.Instance = core.InstanceID(r.u64())
		m.Requests = decodeRequests(r)
		return m
	case tagResp:
		m := &core.RespMessage{}
		m.Instance = core.InstanceID(r.u64())
		m.Timestamp = r.u64()
		m.Reply = r.bytes()
		m.ReplyDigest = r.digest()
		m.HistoryDigest = r.digest()
		m.HistoryLen = r.u64()
		m.HistoryDigests = decodeDigestHistory(r)
		m.MAC = r.mac()
		return m
	case tagInit:
		m := &core.InitMessage{}
		m.Instance = core.InstanceID(r.u64())
		m.Init = decodeInit(r)
		return m

	case tagFetchState:
		m := &statesync.FetchState{}
		m.Instance = core.InstanceID(r.u64())
		m.Seq = r.u64()
		m.BodiesFrom = r.id()
		return m
	case tagState:
		m := &statesync.State{}
		m.Instance = core.InstanceID(r.u64())
		m.BodiesFrom = r.id()
		m.Snap = decodeSnapshot(r)
		m.SuffixDigests = decodeDigestHistory(r)
		m.SuffixRequests = decodeRequests(r)
		return m

	case tagMark:
		m := &shard.Mark{}
		m.Shard = int32(r.u32())
		m.Payload = decodePayload(r)
		return m
	case tagMergedQuery:
		return &shard.MergedQuery{}
	case tagMergedState:
		m := &shard.MergedState{}
		m.Seq = r.u64()
		m.Digest = r.digest()
		m.MAC = r.mac()
		return m
	}
	r.fail(fmt.Errorf("%w: %d", ErrUnknownTag, tag))
	return nil
}
