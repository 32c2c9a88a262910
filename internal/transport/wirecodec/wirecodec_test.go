package wirecodec_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
	"abstractbft/internal/pbft"
	"abstractbft/internal/shard"
	"abstractbft/internal/statesync"
	"abstractbft/internal/transport"
	"abstractbft/internal/transport/wirecodec"
	"abstractbft/internal/zlight"
)

// samplePayloads is a representative subset of the wire-type closure used by
// the adversarial tests (the exhaustive closure is audited from the transport
// package's wire_roundtrip_test.go).
func samplePayloads() []any {
	req := msg.Request{Client: ids.Client(3), Timestamp: 7, Command: []byte("cmd-a")}
	dig := authn.Hash([]byte("digest"))
	mac := authn.MAC{1, 2, 3}
	auth := authn.Authenticator{Sender: ids.Client(3), Entries: []authn.AuthEntry{
		{Receiver: ids.Replica(0), MAC: mac},
		{Receiver: ids.Replica(1), MAC: authn.MAC{4}},
	}}
	init := &core.InitHistory{
		From:    1,
		For:     2,
		Extract: history.ExtractResult{BaseSeq: 8, BaseDigest: dig, Suffix: history.DigestHistory{dig}},
		Proof: []core.SignedAbort{{
			Abort: core.AbortMessage{Instance: 1, Replica: ids.Replica(2), Timestamp: 7, Next: 2},
			Sig:   authn.Signature("sig"),
		}},
		Requests: []msg.Request{req},
	}
	// A traced request and batch exercise the flags-byte trace block and the
	// high-bit batch count marker in every corpus-driven test (truncation,
	// mutation fuzz, unknown-tag audit).
	tracedReq := msg.Request{Client: ids.Client(5), Timestamp: 11, Command: []byte("cmd-t"),
		Trace: obs.TraceContext{TraceID: 0xabcdef0112345678, Parent: 0xabcdef0112345678}}
	return []any{
		&core.RequestMessage{Instance: 1, Req: req, Auth: auth},
		&zlight.OrderMessage{Instance: 1, Batch: msg.BatchOf(req), Seq: 5, Auths: []authn.Authenticator{auth}, PrimaryMAC: mac},
		&core.RequestMessage{Instance: 1, Req: tracedReq, Auth: auth},
		&zlight.OrderMessage{Instance: 2, Batch: msg.BatchOf(tracedReq, req), Seq: 6, Auths: []authn.Authenticator{auth}, PrimaryMAC: mac},
		&pbft.PrePrepare{View: 1, Seq: 2, Batch: []msg.Request{req}, Digest: dig, MAC: mac},
		&core.RespMessage{Instance: 1, Replica: ids.Replica(0), Client: ids.Client(3), Timestamp: 7, Reply: []byte("re"), ReplyDigest: dig, HistoryDigest: dig, HistoryLen: 9, MAC: mac},
		&statesync.State{
			Instance: 1, From: ids.Replica(0), BodiesFrom: ids.Replica(0),
			Snap: statesync.NewSnapshot(16, dig, []byte("app"),
				[]statesync.ClientWindow{{Client: ids.Client(3), High: 7, Mask: 5}},
				[]statesync.ClientRing{{Client: ids.Client(3), Timestamps: []uint64{6}, Replies: [][]byte{[]byte("a")}}}),
			SuffixDigests:  history.DigestHistory{dig},
			SuffixRequests: []msg.Request{req},
		},
		&shard.Mark{Shard: 1, Payload: &transport.Packed{Payloads: []any{
			&core.FetchRequest{Instance: 1, From: ids.Replica(2), Digests: []authn.Digest{dig}},
		}}},
		// The connection handshake control frames: the TCP read loop consumes
		// them instead of delivering to the inbox, so the byte-level corpus is
		// where they get round-trip, truncation, and mutation coverage.
		&transport.ConnChallenge{Nonce: []byte("nonce-0123456789")},
		&transport.ConnProof{Proof: mac},
		&core.InitMessage{Instance: 2, Init: *init},
	}
}

// TestTruncatedInputsErrorCleanly truncates every sample payload's encoding
// at every length: each prefix must fail with an error (never a panic, never
// a successful partial decode of different content).
func TestTruncatedInputsErrorCleanly(t *testing.T) {
	for _, p := range samplePayloads() {
		full, err := wirecodec.MarshalWire(p)
		if err != nil {
			t.Fatalf("marshal %T: %v", p, err)
		}
		for cut := 0; cut < len(full); cut++ {
			if _, err := wirecodec.UnmarshalWire(full[:cut]); err == nil {
				t.Fatalf("%T truncated to %d/%d bytes decoded successfully", p, cut, len(full))
			}
		}
	}
}

// TestOversizedLengthPrefix forges length prefixes far beyond the input and
// checks the decoder errors before allocating.
func TestOversizedLengthPrefix(t *testing.T) {
	// ConnChallenge is tag + u32-length-prefixed nonce; claim 4 GiB.
	buf := []byte{0, 2} // tagConnChallenge
	buf = binary.BigEndian.AppendUint32(buf, 0xFFFFFFF0)
	buf = append(buf, []byte("short")...)
	if _, err := wirecodec.UnmarshalWire(buf); err == nil {
		t.Fatal("oversized byte-string length prefix decoded successfully")
	}
	// Packed with a forged element count.
	buf = []byte{0, 1} // tagPacked
	buf = binary.BigEndian.AppendUint32(buf, 0x7FFFFFFF)
	if _, err := wirecodec.UnmarshalWire(buf); err == nil {
		t.Fatal("oversized element count decoded successfully")
	}
}

// TestUnknownTagErrors checks that unassigned type tags fail with
// ErrUnknownTag instead of panicking or guessing.
func TestUnknownTagErrors(t *testing.T) {
	for _, tag := range []uint16{0, 4, 9, 18, 27, 37, 42, 999, 0xFFFF} {
		buf := binary.BigEndian.AppendUint16(nil, tag)
		_, err := wirecodec.UnmarshalWire(buf)
		if !errors.Is(err, wirecodec.ErrUnknownTag) {
			t.Fatalf("tag %d: got %v, want ErrUnknownTag", tag, err)
		}
	}
}

// TestTrailingBytesError checks that UnmarshalWire rejects input with bytes
// after a valid payload (a frame boundary bug would otherwise hide there).
func TestTrailingBytesError(t *testing.T) {
	full, err := wirecodec.MarshalWire(&shard.MergedQuery{From: ids.Replica(3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wirecodec.UnmarshalWire(append(full, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestNestingDepthCapped checks both directions of the recursion cap: the
// encoder refuses to marshal payloads nested beyond the cap (reporting them
// unencodable, not killing the connection), and the decoder rejects crafted
// deeply nested input.
func TestNestingDepthCapped(t *testing.T) {
	var deep any = &shard.MergedQuery{From: 1}
	for i := 0; i < 64; i++ {
		deep = &shard.Mark{Shard: 0, Payload: deep}
	}
	if _, err := wirecodec.MarshalWire(deep); !errors.Is(err, transport.ErrUnencodable) {
		t.Fatalf("deep marshal: got %v, want ErrUnencodable", err)
	}
	// Crafted bytes: 64 nested mark headers (tag 50 + shard u32).
	var buf []byte
	for i := 0; i < 64; i++ {
		buf = binary.BigEndian.AppendUint16(buf, 50)
		buf = binary.BigEndian.AppendUint32(buf, 0)
	}
	if _, err := wirecodec.UnmarshalWire(buf); !errors.Is(err, wirecodec.ErrDepth) {
		t.Fatalf("deep unmarshal: got %v, want ErrDepth", err)
	}
}

// TestStreamDecoderFrameLimit checks the stream decoder kills a connection
// whose frame length prefix exceeds the sanity limit instead of allocating.
func TestStreamDecoderFrameLimit(t *testing.T) {
	var wire []byte
	wire = binary.BigEndian.AppendUint32(wire, 0xFFFFFFFF)
	dec := wirecodec.Binary().NewDecoder(bytes.NewReader(wire))
	var env transport.Envelope
	if err := dec.Decode(&env); !errors.Is(err, wirecodec.ErrFrameTooBig) {
		t.Fatalf("got %v, want ErrFrameTooBig", err)
	}
}

// TestStreamRoundTrip pushes a burst of envelopes through the stream
// encoder/decoder pair and checks order and content survive the frame
// aggregation.
func TestStreamRoundTrip(t *testing.T) {
	codec := wirecodec.Binary()
	var buf bytes.Buffer
	enc := codec.NewEncoder(&buf)
	payloads := samplePayloads()
	for i, p := range payloads {
		env := transport.Envelope{From: ids.Replica(1), To: ids.ProcessID(i), Payload: p}
		if err := enc.Encode(&env); err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := codec.NewDecoder(&buf)
	for i, p := range payloads {
		var env transport.Envelope
		if err := dec.Decode(&env); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if env.From != ids.Replica(1) || env.To != ids.ProcessID(i) {
			t.Fatalf("envelope %d header mutated: %+v", i, env)
		}
		if !reflect.DeepEqual(env.Payload, p) {
			t.Fatalf("envelope %d payload mutated:\nsent %#v\ngot  %#v", i, p, env.Payload)
		}
	}
}

// TestUnencodablePayloadKeepsStream checks that an unsupported payload type
// reports ErrUnencodable, rolls the frame back, and leaves the stream usable
// for subsequent envelopes.
func TestUnencodablePayloadKeepsStream(t *testing.T) {
	codec := wirecodec.Binary()
	var buf bytes.Buffer
	enc := codec.NewEncoder(&buf)
	bad := transport.Envelope{From: 1, To: 2, Payload: "a string is not a wire type"}
	if err := enc.Encode(&bad); !errors.Is(err, transport.ErrUnencodable) {
		t.Fatalf("got %v, want ErrUnencodable", err)
	}
	good := transport.Envelope{From: 1, To: 2, Payload: &shard.MergedQuery{From: 1}}
	if err := enc.Encode(&good); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := codec.NewDecoder(&buf)
	var env transport.Envelope
	if err := dec.Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env.Payload, good.Payload) {
		t.Fatalf("stream corrupted after unencodable payload: %#v", env.Payload)
	}
}

// TestSlabDecodedValuesAreIndependent: an ORDER's commands and authenticator
// entries are carved out of shared slabs, in runs of mixed sizes (commands
// from empty to larger than a slab, authenticators with no entries), and
// each must still behave like a slice of its own: equal to what was sent,
// and appending to it or overwriting it leaves its neighbours alone.
func TestSlabDecodedValuesAreIndependent(t *testing.T) {
	sizes := []int{3, 70, 0, 15, 70, 5000, 70, 1, 9000, 40, 70, 70, 2, 0, 70, 15}
	order := &zlight.OrderMessage{Instance: 1, Seq: 9}
	for i, size := range sizes {
		order.Batch.Requests = append(order.Batch.Requests, msg.Request{
			Client: ids.Client(i), Timestamp: uint64(i + 1), Command: bytes.Repeat([]byte{byte(i + 1)}, size),
		})
		auth := authn.Authenticator{Sender: ids.Client(i)}
		for j := 0; j < i%5; j++ {
			auth.Entries = append(auth.Entries, authn.AuthEntry{Receiver: ids.Replica(j), MAC: authn.MAC{byte(i), byte(j)}})
		}
		order.Auths = append(order.Auths, auth)
	}
	want, err := wirecodec.MarshalWire(order)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wirecodec.UnmarshalWire(want)
	if err != nil {
		t.Fatal(err)
	}
	got := decoded.(*zlight.OrderMessage)
	for i := range got.Batch.Requests {
		c := &got.Batch.Requests[i].Command
		*c = append(*c, 0xEE)
		clear((*c)[:len(*c)-1])
		*c = order.Batch.Requests[i].Command
		e := &got.Auths[i].Entries
		*e = append(*e, authn.AuthEntry{Receiver: -1})
		clear((*e)[:len(*e)-1])
		*e = order.Auths[i].Entries
		// Everything but the one value just scribbled over and put back must
		// still encode to the original bytes.
		if again, err := wirecodec.MarshalWire(got); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("scribbling over request %d's command and entries changed a neighbour (err %v)", i, err)
		}
	}
}
