package transport_test

// The wire round-trip audit: every message type that crosses a
// transport.Endpoint — protocol messages, batches, null-ops, the state
// transfer plane, and the sharded plane's mark and recovery control messages
// — must encode/decode through a real TCP stream under the binary codec and
// come back equal. A type missing its wirecodec tag arm (or carrying a field
// the codec does not encode) fails here instead of silently breaking the
// multi-process path: the TCP writer drops envelopes whose encoding fails, so
// without this audit a forgotten tag arm shows up only as mysterious
// liveness loss in deployment. The abstractlint wirereg check keeps this
// list and the tag table in step.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/backup"
	"abstractbft/internal/chain"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
	"abstractbft/internal/pbft"
	"abstractbft/internal/quorum"
	"abstractbft/internal/shard"
	"abstractbft/internal/statesync"
	"abstractbft/internal/transport"
	"abstractbft/internal/transport/wirecodec"
	"abstractbft/internal/zlight"
)

// newTCPPair builds two TCP endpoints on loopback: replica 0 (a) and
// replica 1 (b), which knows a's address and proves itself to a.
func newTCPPair(t *testing.T) (*transport.TCP, *transport.TCP) {
	t.Helper()
	keys := authn.NewKeyStore("tcp-pair")
	addrs := map[ids.ProcessID]string{
		ids.Replica(0): "127.0.0.1:0",
	}
	a, err := transport.NewTCPCodec(ids.Replica(0), addrs, keys, wirecodec.Binary())
	if err != nil {
		t.Fatalf("endpoint a: %v", err)
	}
	addrs2 := map[ids.ProcessID]string{
		ids.Replica(0): a.Addr(),
		ids.Replica(1): "127.0.0.1:0",
	}
	b, err := transport.NewTCPCodec(ids.Replica(1), addrs2, keys, wirecodec.Binary())
	if err != nil {
		t.Fatalf("endpoint b: %v", err)
	}
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	return a, b
}

// wirePayloads enumerates one fully populated instance of every message that
// crosses the wire: every tag arm of wirecodec's appendPayload not marked
// //wire:noaudit. Slice fields are non-empty (the codec decodes an empty
// slice as nil, so an empty one would not come back DeepEqual); pointer
// fields are set. A payload's index names its subtests, so entries are
// appended, never removed.
func wirePayloads() []any {
	req := msg.Request{Client: ids.Client(3), Timestamp: 7, Command: []byte("cmd-a")}
	req2 := msg.Request{Client: ids.Client(4), Timestamp: 9, Command: []byte("cmd-b")}
	nullOp := msg.Request{Client: ids.NullOp, Timestamp: 12}
	batch := msg.BatchOf(req, req2)
	dig := authn.Hash([]byte("digest"))
	mac := authn.MAC{1, 2, 3}
	auth := authn.Authenticator{Sender: ids.Client(3), Entries: []authn.AuthEntry{
		{Receiver: ids.Replica(0), MAC: mac},
		{Receiver: ids.Replica(1), MAC: authn.MAC{4}},
	}}
	ca := authn.ChainAuthenticator{Entries: []authn.ChainAuthEntry{
		{Signer: ids.Replica(0), Receiver: ids.Replica(1), MAC: mac},
	}}
	signed := core.SignedAbort{
		Abort: core.AbortMessage{Instance: 1, Replica: ids.Replica(2), Timestamp: 7, Next: 2},
		Sig:   authn.Signature("sig-bytes"),
	}
	init := core.InitHistory{
		From: 1,
		For:  2,
		Extract: history.ExtractResult{
			BaseSeq:    8,
			BaseDigest: dig,
			Suffix:     history.DigestHistory{dig, authn.Hash([]byte("d2"))},
		},
		Proof:    []core.SignedAbort{signed},
		Requests: []msg.Request{req},
	}

	// Traced variants: a head-sampled request (trace context stamped by the
	// client) and a batch with it as a member, so every carrier of requests
	// and batches is audited with the request's trace block populated too.
	tctx := obs.TraceContext{TraceID: 0xabcdef0112345678, Parent: 0xabcdef0112345678}
	tracedReq := msg.Request{Client: ids.Client(5), Timestamp: 11, Command: []byte("cmd-t"), Trace: tctx}
	tracedBatch := msg.BatchOf(tracedReq, req2)

	return []any{
		// Request plane: the one REQ as each instance sends it, the
		// per-protocol ordering messages, batched and degenerate, plus a
		// Mencius-style null-op inside an ORDER.
		sentAs{"*zlight.RequestMessage", &core.RequestMessage{Instance: 1, Req: req, Auth: auth}},
		&zlight.OrderMessage{Instance: 1, Batch: batch, Seq: 5, Auths: []authn.Authenticator{auth, auth}, PrimaryMAC: mac},
		&zlight.OrderMessage{Instance: 3, Batch: msg.BatchOf(nullOp), Seq: 9, Auths: []authn.Authenticator{{Sender: ids.NullOp}}, PrimaryMAC: mac},
		&chain.Message{Instance: 2, Req: req, Seq: 4, HasSeq: true, ReplyDigest: dig, Reply: []byte("re"), HistoryDigest: dig, CA: ca},
		&chain.BatchMessage{Instance: 2, Batch: batch, Seq: 6, ClientCAs: []authn.ChainAuthenticator{ca, ca}, ReplyDigests: []authn.Digest{dig, dig}, HistoryDigest: dig, CA: ca},
		sentAs{"*quorum.RequestMessage", &core.RequestMessage{Instance: 1, Req: req, Auth: auth}},
		&quorum.BatchRequestMessage{Instance: 1, Batch: batch, Auth: auth},
		sentAs{"*backup.RequestMessage", &core.RequestMessage{Instance: 3, Req: req, Auth: auth}},
		&backup.WrappedMessage{Instance: 3, Inner: &pbft.PrePrepare{View: 1, Seq: 2, Batch: []msg.Request{req, req2}, Auths: []authn.Authenticator{auth, auth}, Digest: dig, MAC: mac}},

		// The inner PBFT engine's messages (Backup wraps them, but they have
		// tag arms of their own and can cross raw as well), with the view
		// change of a replica that prepared nothing and a new view whose
		// proposal fills a gap with an empty batch.
		&pbft.ViewChange{NewView: 3, Replica: ids.Replica(2), Sig: authn.Signature("s")},
		&pbft.PrePrepare{View: 1, Seq: 2, Batch: []msg.Request{req}, Auths: []authn.Authenticator{auth}, Digest: dig, MAC: mac},
		&pbft.Prepare{View: 1, Seq: 2, Digest: dig, MAC: mac},
		&pbft.Commit{View: 1, Seq: 2, Digest: dig, MAC: mac},
		&pbft.NewView{View: 3, ViewChanges: []pbft.ViewChange{{NewView: 3, Replica: ids.Replica(2), Sig: authn.Signature("s")}}, Proposals: []pbft.PrePrepare{{View: 3, Seq: 5, Digest: msg.DigestOf(nil)}}},
		&pbft.ViewChange{NewView: 2, Replica: ids.Replica(1), LastDelivered: 3, Prepared: []pbft.PreparedEntry{{Seq: 4, View: 1, Digest: dig, Batch: []msg.Request{req}, Auths: []authn.Authenticator{auth}}}, Sig: authn.Signature("s")},
		&pbft.NewView{View: 2, ViewChanges: []pbft.ViewChange{{NewView: 2, Replica: ids.Replica(1), Sig: authn.Signature("s")}}, Proposals: []pbft.PrePrepare{{View: 2, Seq: 4, Batch: []msg.Request{req}, Auths: []authn.Authenticator{auth}, Digest: dig, MAC: mac}}},

		// The composition layer: panic/abort, checkpointing, body fetch, and
		// the shared speculative RESP.
		&core.PanicMessage{Instance: 1, Timestamp: 7},
		&core.AbortReply{Instance: 1, Timestamp: 7, Signed: signed},
		&core.CheckpointMessage{AbstractID: 2, Counter: 3, StateDigest: dig},
		&core.FetchRequest{Instance: 1, Digests: []authn.Digest{dig}},
		&core.FetchResponse{Instance: 1, Requests: []msg.Request{req}},
		&core.RespMessage{Instance: 1, Timestamp: 7, Reply: []byte("re"), ReplyDigest: dig, HistoryDigest: dig, HistoryLen: 9, MAC: mac},

		// The state-transfer plane: FETCH-STATE and a STATE carrying a full
		// snapshot payload (application bytes, timestamp windows, reply
		// rings) plus the history suffix.
		&statesync.FetchState{Instance: 1, Seq: 16, BodiesFrom: ids.Replica(0)},
		&statesync.State{
			Instance:   1,
			BodiesFrom: ids.Replica(0),
			Snap: statesync.NewSnapshot(16, dig, []byte("app-state"),
				[]statesync.ClientWindow{{Client: ids.Client(3), High: 7, Mask: 5}},
				[]statesync.ClientRing{{Client: ids.Client(3), Timestamps: []uint64{6, 7}, Replies: [][]byte{[]byte("a"), []byte("b")}}}),
			SuffixDigests:  history.DigestHistory{dig},
			SuffixRequests: []msg.Request{req},
		},

		// The sharded plane: marked traffic (protocol payloads and packs
		// wrapped per shard) and the node-level recovery control plane.
		&shard.Mark{Shard: 1, Payload: &zlight.OrderMessage{Instance: 1, Batch: batch, Seq: 5, Auths: []authn.Authenticator{auth, auth}, PrimaryMAC: mac}},
		&shard.Mark{Shard: 0, Payload: &statesync.FetchState{Instance: 1, Seq: 8, BodiesFrom: ids.Replica(1)}},
		&shard.MergedQuery{},
		&shard.MergedState{Seq: 32, Digest: dig, MAC: mac},

		// Trace-context propagation: the same carriers with a sampled request,
		// alone or as a batch member, must round-trip its flags-byte trace
		// block.
		sentAs{"*zlight.RequestMessage", &core.RequestMessage{Instance: 1, Req: tracedReq, Auth: auth}},
		&zlight.OrderMessage{Instance: 1, Batch: tracedBatch, Seq: 5, Auths: []authn.Authenticator{auth}, PrimaryMAC: mac},
		&chain.Message{Instance: 2, Req: tracedReq, Seq: 4, HasSeq: true, ReplyDigest: dig, Reply: []byte("re"), HistoryDigest: dig, CA: ca},
		&chain.BatchMessage{Instance: 2, Batch: tracedBatch, Seq: 6, ClientCAs: []authn.ChainAuthenticator{ca, ca}, ReplyDigests: []authn.Digest{dig, dig}, HistoryDigest: dig, CA: ca},
		sentAs{"*quorum.RequestMessage", &core.RequestMessage{Instance: 1, Req: tracedReq, Auth: auth}},
		&quorum.BatchRequestMessage{Instance: 1, Batch: tracedBatch, Auth: auth},
		sentAs{"*backup.RequestMessage", &core.RequestMessage{Instance: 3, Req: tracedReq, Auth: auth}},
		&pbft.PrePrepare{View: 1, Seq: 2, Batch: []msg.Request{tracedReq, req}, Auths: []authn.Authenticator{auth, auth}, Digest: dig, MAC: mac},
		&core.FetchResponse{Instance: 1, Requests: []msg.Request{tracedReq}},
		&shard.Mark{Shard: 1, Payload: &zlight.OrderMessage{Instance: 1, Batch: tracedBatch, Seq: 5, Auths: []authn.Authenticator{auth}, PrimaryMAC: mac}},

		// The connection handshake control frames. They are audited here for
		// codec coverage (TestWireByteEquality and the abstractlint wirereg
		// gate); the TCP echo test skips them because an authenticated read
		// loop consumes handshake frames instead of delivering them.
		&transport.ConnChallenge{Nonce: []byte("nonce-0123456789")},
		&transport.ConnProof{Proof: mac},

		// The one carrier of init histories (appended last, so no earlier
		// payload's ID moves).
		&core.InitMessage{Instance: 2, Init: init},

		// Backup's wrapped PBFT phase messages, and traced requests inside
		// a wrapped proposal and a view change's prepared entry.
		&backup.WrappedMessage{Instance: 3, Inner: &pbft.Prepare{View: 1, Seq: 2, Digest: dig, MAC: mac}},
		&backup.WrappedMessage{Instance: 3, Inner: &pbft.Commit{View: 1, Seq: 2, Digest: dig, MAC: mac}},
		&backup.WrappedMessage{Instance: 3, Inner: &pbft.PrePrepare{View: 1, Seq: 2, Batch: []msg.Request{tracedReq}, Auths: []authn.Authenticator{auth}, Digest: dig, MAC: mac}},
		&pbft.ViewChange{NewView: 2, Replica: ids.Replica(1), LastDelivered: 3, Prepared: []pbft.PreparedEntry{{Seq: 4, View: 1, Digest: dig, Batch: []msg.Request{tracedReq}, Auths: []authn.Authenticator{auth}}}, Sig: authn.Signature("s")},
	}
}

// sentAs labels the one REQ (core.RequestMessage, tag 10) with the instance
// that sends it. ZLight, Quorum and Backup each had a REQ type of their own
// before they shared this one, and each instance's audit entries keep the
// subtest names those types gave them.
type sentAs struct {
	name    string
	payload any
}

// auditEntry returns a wirePayloads entry's subtest name (index and type, or
// index and label) and the payload itself.
func auditEntry(i int, entry any) (string, any) {
	if l, ok := entry.(sentAs); ok {
		return fmt.Sprintf("%02d_%s", i, l.name), l.payload
	}
	return fmt.Sprintf("%02d_%T", i, entry), entry
}

// handshakeControl reports whether a payload is consumed by the TCP read
// loop itself (never delivered to the inbox), so stream echo tests must skip
// it.
func handshakeControl(p any) bool {
	switch p.(type) {
	case *transport.ConnChallenge, *transport.ConnProof:
		return true
	}
	return false
}

// TestWireRoundTrips sends every wire message through a real TCP stream and
// asserts it arrives intact and equal.
func TestWireRoundTrips(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		a, b := newTCPPair(t)
		for i, entry := range wirePayloads() {
			name, payload := auditEntry(i, entry)
			if handshakeControl(payload) {
				continue
			}
			t.Run(name, func(t *testing.T) {
				b.Send(ids.Replica(0), payload)
				select {
				case env, ok := <-a.Inbox():
					if !ok {
						t.Fatal("endpoint closed")
					}
					if !reflect.DeepEqual(env.Payload, payload) {
						t.Fatalf("round trip mutated the message:\nsent %#v\ngot  %#v", payload, env.Payload)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("message %T never arrived: dropped by the encoder (missing tag arm?)", payload)
				}
			})
		}
	})
}

// TestWireByteEquality asserts the binary codec's one-shot marshal of every
// audit payload decodes back equal and re-encodes to identical bytes (the
// encoding is canonical: no map iteration, no per-stream state).
func TestWireByteEquality(t *testing.T) {
	for i, entry := range wirePayloads() {
		name, payload := auditEntry(i, entry)
		t.Run(name, func(t *testing.T) {
			first, err := wirecodec.MarshalWire(payload)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			decoded, err := wirecodec.UnmarshalWire(first)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(decoded, payload) {
				t.Fatalf("round trip mutated the message:\nsent %#v\ngot  %#v", payload, decoded)
			}
			second, err := wirecodec.MarshalWire(decoded)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("re-encoding is not byte-identical:\nfirst  %x\nsecond %x", first, second)
			}
		})
	}
}

// TestUntracedTraceCostsZeroWireBytes pins the tracing wire guarantee on the
// binary codec: requests and batches that carry no trace context must encode
// to exactly as many bytes as before tracing existed — the request flags byte
// sits where the old ReadOnly bool byte sat, the batch count is a plain u32,
// and the envelope header is From and To alone. Only a request carries a
// trace context: a traced request pays 16 bytes, and a traced batch pays its
// traced members' blocks and nothing of its own.
func TestUntracedTraceCostsZeroWireBytes(t *testing.T) {
	tctx := obs.TraceContext{TraceID: 0xfeed, Parent: 0xbeef}
	plainReq := msg.Request{Client: ids.Client(3), Timestamp: 7, ReadOnly: true, Command: []byte("cmd")}
	tracedReq := plainReq
	tracedReq.Trace = tctx

	// Request: the pre-tracing encoding was id(4) + timestamp(8) + bool(1) +
	// command(4+len); the flags byte replaces the bool byte-for-byte.
	plain, err := wirecodec.MarshalWire(&core.RequestMessage{Instance: 1, Req: plainReq})
	if err != nil {
		t.Fatalf("marshal plain: %v", err)
	}
	// tag + instance + request (client + timestamp + flags byte + command) +
	// empty authenticator (sender + entry count).
	wantLen := 2 + 8 + (4 + 8 + 1 + 4 + len(plainReq.Command)) + (4 + 4)
	if len(plain) != wantLen {
		t.Errorf("untraced request message: %d bytes, want %d (untraced requests must pay zero trace bytes)", len(plain), wantLen)
	}
	traced, err := wirecodec.MarshalWire(&core.RequestMessage{Instance: 1, Req: tracedReq})
	if err != nil {
		t.Fatalf("marshal traced: %v", err)
	}
	if len(traced) != len(plain)+16 {
		t.Errorf("traced request premium: %d bytes over %d, want exactly 16", len(traced)-len(plain), len(plain))
	}

	// Batch: the traced form pays 16 bytes for its traced member's block;
	// the untraced form pays nothing.
	req2 := msg.Request{Client: ids.Client(4), Timestamp: 9, Command: []byte("cmd-b")}
	plainBatch, err := wirecodec.MarshalWire(&quorum.BatchRequestMessage{Instance: 1, Batch: msg.BatchOf(plainReq, req2)})
	if err != nil {
		t.Fatalf("marshal plain batch: %v", err)
	}
	tracedBatch, err := wirecodec.MarshalWire(&quorum.BatchRequestMessage{Instance: 1, Batch: msg.BatchOf(tracedReq, req2)})
	if err != nil {
		t.Fatalf("marshal traced batch: %v", err)
	}
	if len(tracedBatch) != len(plainBatch)+16 {
		t.Errorf("traced batch premium: %d bytes over %d, want exactly 16", len(tracedBatch)-len(plainBatch), len(plainBatch))
	}

	// Envelope: the stream-encoded frame costs header + payload exactly.
	encode := func(env transport.Envelope) int {
		var buf bytes.Buffer
		enc := wirecodec.Binary().NewEncoder(&buf)
		if err := enc.Encode(&env); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		return buf.Len()
	}
	env := transport.Envelope{From: ids.Replica(1), To: ids.Replica(0), Payload: &core.RequestMessage{Instance: 1, Req: plainReq}}
	plainN := encode(env)
	if want := 4 + 4 + 4 + len(plain); plainN != want { // frame length prefix + from + to + payload
		t.Errorf("untraced envelope frame: %d bytes, want %d", plainN, want)
	}
}

// TestPackedRoundTrip covers the write-coalescing pack: receivers must see
// the expanded protocol payloads, never the pack itself — including when a
// pack travels under a shard mark.
func TestPackedRoundTrip(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		a, b := newTCPPair(t)
		req := msg.Request{Client: ids.Client(3), Timestamp: 7, Command: []byte("cmd")}
		inner := []any{
			&core.FetchRequest{Instance: 1, Digests: []authn.Digest{authn.Hash([]byte("x"))}},
			&core.FetchResponse{Instance: 1, Requests: []msg.Request{req}},
		}
		transport.SendBatch(b, ids.Replica(0), inner)
		for i := 0; i < len(inner); i++ {
			select {
			case env, ok := <-a.Inbox():
				if !ok {
					t.Fatal("endpoint closed")
				}
				if !reflect.DeepEqual(env.Payload, inner[i]) {
					t.Fatalf("pack element %d mutated:\nsent %#v\ngot  %#v", i, inner[i], env.Payload)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("pack element %d never arrived", i)
			}
		}
	})
}
