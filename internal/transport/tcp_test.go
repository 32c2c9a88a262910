package transport_test

import (
	"net"
	"reflect"
	"testing"
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/ids"
	"abstractbft/internal/obs"
	"abstractbft/internal/transport"
	"abstractbft/internal/transport/wirecodec"
)

// marker is a small real wire payload told apart by its counter.
func marker(n uint64) *core.CheckpointMessage {
	return &core.CheckpointMessage{AbstractID: 1, Counter: n}
}

func TestTCPTransport(t *testing.T) {
	if _, err := transport.NewTCPCodec(ids.Replica(0), map[ids.ProcessID]string{ids.Replica(0): "127.0.0.1:0"}, nil, nil); err == nil {
		t.Fatal("NewTCPCodec accepted a nil codec")
	}
	if _, err := transport.NewTCPCodec(ids.Replica(0), map[ids.ProcessID]string{ids.Replica(0): "127.0.0.1:0"}, nil, wirecodec.Binary()); err == nil {
		t.Fatal("NewTCPCodec accepted a nil key store")
	}
	a, b := newTCPPair(t)
	b.Send(ids.Replica(0), marker(1))
	select {
	case env := <-a.Inbox():
		if env.From != ids.Replica(1) || !reflect.DeepEqual(env.Payload, marker(1)) {
			t.Fatalf("unexpected envelope %+v", env)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("TCP message not delivered")
	}
}

func TestTCPSendBatchUnpacks(t *testing.T) {
	a, b := newTCPPair(t)
	// A burst of individual sends exercises the write-coalescing path, and a
	// SendBatch exercises receive-side unpacking.
	b.Send(ids.Replica(0), marker(1))
	b.Send(ids.Replica(0), marker(2))
	transport.SendBatch(b, ids.Replica(0), []any{marker(3), marker(4)})
	got := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		select {
		case env := <-a.Inbox():
			m, ok := env.Payload.(*core.CheckpointMessage)
			if !ok {
				t.Fatalf("unexpected payload %T", env.Payload)
			}
			got[m.Counter] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("message %d not delivered; got %v", i, got)
		}
	}
	for want := uint64(1); want <= 4; want++ {
		if !got[want] {
			t.Fatalf("missing marker %d after unpacking, got %v", want, got)
		}
	}
}

// TestTCPDeliversOnlyProvenPeer: an accepted connection delivers envelopes
// from the one peer that proved itself on it, and nothing else — neither an
// envelope sent before the proof nor one claiming another sender after it.
func TestTCPDeliversOnlyProvenPeer(t *testing.T) {
	keys := authn.NewKeyStore("proven-peer")
	replica, other, client := ids.Replica(0), ids.Replica(2), ids.Client(1)
	server, err := transport.NewTCPCodec(replica, map[ids.ProcessID]string{replica: "127.0.0.1:0"}, keys, wirecodec.Binary())
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	p := dialRaw(t, server.Addr())
	env, _ := p.recv(2 * time.Second)
	challenge, ok := env.Payload.(*transport.ConnChallenge)
	if !ok {
		t.Fatalf("received %+v, want the acceptor's challenge", env)
	}
	p.send(transport.Envelope{From: other, To: replica, Payload: marker(1)})
	p.send(transport.Envelope{From: client, To: replica, Payload: &transport.ConnProof{
		Proof: handshakeProof(keys, client, replica, challenge.Nonce),
	}})
	p.send(transport.Envelope{From: other, To: replica, Payload: marker(2)})
	p.send(transport.Envelope{From: client, To: replica, Payload: marker(3)})

	// One connection delivers in order, so whatever of the first two got
	// through arrives ahead of the third.
	select {
	case env := <-server.Inbox():
		if env.From != client || !reflect.DeepEqual(env.Payload, marker(3)) {
			t.Fatalf("delivered %v from %v; want only marker 3 from the proven %v", env.Payload, env.From, client)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the proven peer's envelope was not delivered")
	}
}

// TestTCPSendDuringOutageDeliveredAfterRestart: a Send made while the peer
// is down waits in the link's queue and is delivered once the peer listens
// again on the same address.
func TestTCPSendDuringOutageDeliveredAfterRestart(t *testing.T) {
	keys := authn.NewKeyStore("outage")
	r0, r1 := ids.Replica(0), ids.Replica(1)
	a, err := transport.NewTCPCodec(r0, map[ids.ProcessID]string{r0: "127.0.0.1:0"}, keys, wirecodec.Binary())
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()
	b, err := transport.NewTCPCodec(r1, map[ids.ProcessID]string{r0: addr, r1: "127.0.0.1:0"}, keys, wirecodec.Binary())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Send(r0, marker(1))
	awaitDelivery(t, a, r1, marker(1))

	a.Close()
	time.Sleep(100 * time.Millisecond) // b sees the connection die
	b.Send(r0, marker(2))
	time.Sleep(100 * time.Millisecond)

	a, err = transport.NewTCPCodec(r0, map[ids.ProcessID]string{r0: addr}, keys, wirecodec.Binary())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	awaitDelivery(t, a, r1, marker(2))
}

// TestTCPResetIsNotADecodeError: a peer that resets its connection (a close
// with SO_LINGER 0, as a killed process's kernel does) ends the connection
// like an EOF; only bytes the codec cannot read count as decode errors.
func TestTCPResetIsNotADecodeError(t *testing.T) {
	keys := authn.NewKeyStore("reset")
	replica := ids.Replica(0)
	server, err := transport.NewTCPCodec(replica, map[ids.ProcessID]string{replica: "127.0.0.1:0"}, keys, wirecodec.Binary())
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	reg := obs.NewRegistry()
	server.SetMetrics(transport.NewTCPMetrics(reg))
	decodeErrors := reg.Counter("transport_decode_errors_total")

	// Reading the challenge proves the server is reading the connection.
	reset, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	reset.SetReadDeadline(time.Now().Add(2 * time.Second))
	var challenge transport.Envelope
	if err := wirecodec.Binary().NewDecoder(reset).Decode(&challenge); err != nil {
		t.Fatalf("no challenge from the server: %v", err)
	}
	reset.(*net.TCPConn).SetLinger(0)
	reset.Close()
	time.Sleep(200 * time.Millisecond)
	if n := decodeErrors.Value(); n != 0 {
		t.Fatalf("a reset connection counted %d decode errors, want 0", n)
	}

	garbage, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer garbage.Close()
	// A frame header announcing 4 GiB: more than any frame may hold.
	if _, err := garbage.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); decodeErrors.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := decodeErrors.Value(); n != 1 {
		t.Fatalf("garbage bytes counted %d decode errors, want 1", n)
	}
}
