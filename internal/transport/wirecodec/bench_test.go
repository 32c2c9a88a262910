package wirecodec_test

import (
	"bytes"
	"io"
	"testing"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
	"abstractbft/internal/transport/wirecodec"
	"abstractbft/internal/zlight"
)

// benchEnvelope is the hot-path shape the benchmarks pin down: a batched
// ORDER message (16 requests of 64 bytes, one authenticator per request with
// 4 entries each), the message the primary multicasts once per batch.
func benchEnvelope() transport.Envelope {
	reqs := make([]msg.Request, 16)
	auths := make([]authn.Authenticator, 16)
	cmd := bytes.Repeat([]byte("x"), 64)
	for i := range reqs {
		reqs[i] = msg.Request{Client: ids.Client(i), Timestamp: uint64(100 + i), Command: cmd}
		entries := make([]authn.AuthEntry, 4)
		for j := range entries {
			entries[j] = authn.AuthEntry{Receiver: ids.Replica(j), MAC: authn.MAC{byte(i), byte(j)}}
		}
		auths[i] = authn.Authenticator{Sender: ids.Client(i), Entries: entries}
	}
	return transport.Envelope{
		From: ids.Replica(0),
		To:   ids.Replica(1),
		Payload: &zlight.OrderMessage{
			Instance:   1,
			Batch:      msg.Batch{Requests: reqs},
			Seq:        4096,
			Auths:      auths,
			PrimaryMAC: authn.MAC{1, 2, 3},
		},
	}
}

func benchmarkEncode(b *testing.B, codec transport.Codec) {
	env := benchEnvelope()
	enc := codec.NewEncoder(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(&env); err != nil {
			b.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkDecode(b *testing.B, codec transport.Codec) {
	env := benchEnvelope()
	// Chunked: pre-encode a block of envelopes with the timer stopped, then
	// decode it with the timer running. The per-chunk decoder construction
	// amortizes to noise.
	const chunk = 256
	var out transport.Envelope
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		n := chunk
		if rem := b.N - done; rem < n {
			n = rem
		}
		b.StopTimer()
		var buf bytes.Buffer
		enc := codec.NewEncoder(&buf)
		for i := 0; i < n; i++ {
			if err := enc.Encode(&env); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
		dec := codec.NewDecoder(&buf)
		b.StartTimer()
		for i := 0; i < n; i++ {
			if err := dec.Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	}
	_ = out
}

func BenchmarkEncodeBinary(b *testing.B) { benchmarkEncode(b, wirecodec.Binary()) }
func BenchmarkEncodeGob(b *testing.B)    { benchmarkEncode(b, transport.GobCodec()) }
func BenchmarkDecodeBinary(b *testing.B) { benchmarkDecode(b, wirecodec.Binary()) }
func BenchmarkDecodeGob(b *testing.B)    { benchmarkDecode(b, transport.GobCodec()) }

// BenchmarkEncodeBinaryUnpooled measures the one-shot MarshalWire path (a
// fresh output slice per message) against the pooled streaming path above.
func BenchmarkEncodeBinaryUnpooled(b *testing.B) {
	env := benchEnvelope()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wirecodec.MarshalWire(env.Payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeAllocBudget is the allocation regression gate CI runs: steady-
// state streaming encode of the batched ORDER envelope must not allocate at
// all, and decode must stay within a pinned budget (the decoded message's
// own slices plus small constant overhead).
func TestEncodeAllocBudget(t *testing.T) {
	env := benchEnvelope()
	enc := wirecodec.Binary().NewEncoder(io.Discard)
	// Warm the buffer pool and the encoder's frame buffer.
	for i := 0; i < 4; i++ {
		if err := enc.Encode(&env); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := enc.Encode(&env); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state encode allocates %.1f times per envelope, want 0", allocs)
	}
}

func TestDecodeAllocBudget(t *testing.T) {
	env := benchEnvelope()
	var buf bytes.Buffer
	enc := wirecodec.Binary().NewEncoder(&buf)
	if err := enc.Encode(&env); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	// The budget pins the decoded message's own allocations — the payload
	// struct, the request and authenticator slices, one slab for the 16
	// commands and one for the 64 authenticator entries — plus the decoder
	// this loop builds per envelope (5). A command or an entry slice
	// allocated on its own again costs 15 more.
	const budget = 12
	allocs := testing.AllocsPerRun(200, func() {
		dec := wirecodec.Binary().NewDecoder(bytes.NewReader(frame))
		var out transport.Envelope
		if err := dec.Decode(&out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("decode allocates %.1f times per envelope, budget %d", allocs, budget)
	}
}
