package transport

import (
	"testing"
	"time"

	"abstractbft/internal/ids"
)

func TestLocalSendBatchUnpacksAsOneWireMessage(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	a := net.Endpoint(ids.Replica(0))
	b := net.Endpoint(ids.Replica(1))

	SendBatch(a, ids.Replica(1), []any{"one", "two", "three"})
	for _, want := range []string{"one", "two", "three"} {
		env, ok := recvWithTimeout(t, b, time.Second)
		if !ok || env.Payload != want || env.From != ids.Replica(0) {
			t.Fatalf("unpacked delivery failed: %+v ok=%v want %q", env, ok, want)
		}
	}
	// The whole pack crossed the network as a single wire message.
	msgs, _ := net.Stats()
	if msgs != 1 {
		t.Fatalf("stats report %d messages for one coalesced batch, want 1", msgs)
	}
}

func TestLocalSendBatchDegenerate(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	a := net.Endpoint(ids.Replica(0))
	b := net.Endpoint(ids.Replica(1))

	SendBatch(a, ids.Replica(1), nil)
	SendBatch(a, ids.Replica(1), []any{"solo"})
	env, ok := recvWithTimeout(t, b, time.Second)
	if !ok || env.Payload != "solo" {
		t.Fatalf("degenerate batch delivery failed: %+v ok=%v", env, ok)
	}
	if _, packed := env.Payload.(*Packed); packed {
		t.Fatal("single payload must not be wrapped in Packed")
	}
}

// TestSendBatchSinglePayloadAllocs proves the degenerate fast path: a
// single-payload SendBatch must not allocate at all — in particular it must
// not build a Packed wrapper or a fresh payload slice.
func TestSendBatchSinglePayloadAllocs(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	a := net.Endpoint(ids.Replica(0))
	net.Endpoint(ids.Replica(1)) // receiver exists; its inbox dropping on full is fine

	payload := any("steady-state payload")
	single := []any{payload}
	if allocs := testing.AllocsPerRun(100, func() {
		SendBatch(a, ids.Replica(1), single)
	}); allocs > 0 {
		t.Fatalf("single-payload SendBatch allocates %.1f times per send, want 0", allocs)
	}
}

func TestDemuxBroadcastsToAllSubscriptions(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	sender := net.Endpoint(ids.Replica(0))
	client := net.Endpoint(ids.Client(0))
	d := NewDemux(client)

	s1 := d.Open()
	s2 := d.Open()
	if s1.ID() != ids.Client(0) {
		t.Fatalf("virtual endpoint has id %v, want %v", s1.ID(), ids.Client(0))
	}
	sender.Send(ids.Client(0), "fanout")
	for i, s := range []Endpoint{s1, s2} {
		env, ok := recvWithTimeout(t, s, time.Second)
		if !ok || env.Payload != "fanout" {
			t.Fatalf("subscription %d missed broadcast: %+v ok=%v", i, env, ok)
		}
	}

	// After closing, a subscription receives nothing further and the other
	// stays live.
	s1.Close()
	sender.Send(ids.Client(0), "after-close")
	if env, ok := recvWithTimeout(t, s2, time.Second); !ok || env.Payload != "after-close" {
		t.Fatalf("remaining subscription missed message: %+v ok=%v", env, ok)
	}
	if env, ok := recvWithTimeout(t, s1, 50*time.Millisecond); ok {
		t.Fatalf("closed subscription still received %+v", env)
	}
}

func TestDemuxSendPassesThrough(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	replica := net.Endpoint(ids.Replica(0))
	client := net.Endpoint(ids.Client(0))
	d := NewDemux(client)
	sub := d.Open()
	defer sub.Close()
	sub.Send(ids.Replica(0), "up")
	env, ok := recvWithTimeout(t, replica, time.Second)
	if !ok || env.Payload != "up" || env.From != ids.Client(0) {
		t.Fatalf("send through virtual endpoint failed: %+v ok=%v", env, ok)
	}
}
