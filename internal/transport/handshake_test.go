package transport_test

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/transport"
	"abstractbft/internal/transport/wirecodec"
)

// rawPeer is a hand-driven connection speaking binary frames: the attacker of
// the handshake tests, free to put any From on its envelopes.
type rawPeer struct {
	t   *testing.T
	enc transport.StreamEncoder
	// in carries the envelopes decoded off the connection and is closed when
	// the connection dies. Its 64 slots exceed what any test here sends the
	// peer, so the reader drops nothing a test waits for.
	in chan transport.Envelope
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &rawPeer{t: t, enc: wirecodec.Binary().NewEncoder(conn), in: make(chan transport.Envelope, 64)}
	dec := wirecodec.Binary().NewDecoder(conn)
	go func() {
		defer close(p.in)
		for {
			var env transport.Envelope
			if dec.Decode(&env) != nil {
				return
			}
			select {
			case p.in <- env:
			default: // never block, so the goroutine exits with the connection
			}
		}
	}()
	return p
}

func (p *rawPeer) send(env transport.Envelope) {
	p.t.Helper()
	if err := p.enc.Encode(&env); err != nil {
		p.t.Fatal(err)
	}
	if err := p.enc.Flush(); err != nil {
		p.t.Fatal(err)
	}
}

// recv returns the next envelope off the connection (false on timeout or a
// closed connection).
func (p *rawPeer) recv(d time.Duration) (transport.Envelope, bool) {
	select {
	case env, ok := <-p.in:
		return env, ok
	case <-time.After(d):
		return transport.Envelope{}, false
	}
}

// handshakeProof is the golden of the handshake format: a dialer's ConnProof
// is a MAC over "tcp-conn-proof:" followed by the acceptor's nonce, under the
// pairwise key of dialer and acceptor.
func handshakeProof(keys *authn.KeyStore, dialer, acceptor ids.ProcessID, nonce []byte) authn.MAC {
	return keys.MAC(dialer, acceptor, []byte("tcp-conn-proof:"+string(nonce)))
}

// awaitDelivery drains ep's inbox until an envelope from `from` carrying want
// arrives.
func awaitDelivery(t *testing.T, ep transport.Endpoint, from ids.ProcessID, want any) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case env := <-ep.Inbox():
			if env.From == from && reflect.DeepEqual(env.Payload, want) {
				return
			}
		case <-deadline:
			t.Fatalf("%v from %v not delivered", want, from)
		}
	}
}

// TestTCPHandshakePinsReplyRoute models the reply-route squatting attack: a
// Byzantine peer connects to a replica first, claiming a victim client's
// identity in its envelopes' From field. Without the handshake the replica
// would route the victim's replies over the attacker's connection; with the
// handshake only the peer that MACs the acceptor's nonce under the pairwise
// key wins the route, so the victim still receives its replies.
func TestTCPHandshakePinsReplyRoute(t *testing.T) {
	keys := authn.NewKeyStore("handshake-test")
	replica := ids.Replica(0)
	victim := ids.Client(0)
	attacker := ids.Client(1)

	server, err := transport.NewTCPCodec(replica, map[ids.ProcessID]string{replica: "127.0.0.1:0"}, keys, wirecodec.Binary())
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	// The attacker connects first and squats before the handshake completes.
	att := dialRaw(t, server.Addr())
	env, _ := att.recv(2 * time.Second)
	challenge, ok := env.Payload.(*transport.ConnChallenge)
	if !ok {
		t.Fatalf("attacker received %+v, want the acceptor's challenge", env)
	}
	att.send(transport.Envelope{From: victim, To: replica, Payload: marker(100)})

	// It answers the challenge under its own pairwise key (the only one it
	// holds), which wins it its own reply route: a reply to the attacker comes
	// back over this connection, proving the golden proof format holds.
	att.send(transport.Envelope{From: attacker, To: replica, Payload: &transport.ConnProof{
		Proof: handshakeProof(keys, attacker, replica, challenge.Nonce),
	}})
	att.send(transport.Envelope{From: attacker, To: replica, Payload: marker(1)})
	awaitDelivery(t, server, attacker, marker(1))
	server.Send(attacker, marker(2))
	if env, _ := att.recv(2 * time.Second); !reflect.DeepEqual(env.Payload, marker(2)) {
		t.Fatalf("attacker got %v, not its own reply: the handshake proof was rejected", env.Payload)
	}

	// Proven as itself, it forges the victim's From again.
	for i := 0; i < 3; i++ {
		att.send(transport.Envelope{From: victim, To: replica, Payload: marker(100)})
	}

	// The honest victim connects afterwards, completes its own handshake, and
	// invokes.
	victimAddrs := map[ids.ProcessID]string{replica: server.Addr(), victim: "127.0.0.1:0"}
	vic, err := transport.NewTCPCodec(victim, victimAddrs, keys, wirecodec.Binary())
	if err != nil {
		t.Fatal(err)
	}
	defer vic.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := vic.Prime(ctx, []ids.ProcessID{replica}); err != nil {
		t.Fatal(err)
	}
	vic.Send(replica, marker(3))
	awaitDelivery(t, server, victim, marker(3))

	// The replica replies to the victim; it must arrive on the victim's
	// connection, not the attacker's.
	server.Send(victim, marker(4))
	select {
	case env := <-vic.Inbox():
		if !reflect.DeepEqual(env.Payload, marker(4)) {
			t.Fatalf("victim received %v, want the reply", env.Payload)
		}
	case env := <-att.in:
		t.Fatalf("attacker received the victim's reply: %v", env.Payload)
	case <-time.After(2 * time.Second):
		t.Fatal("reply not delivered to the victim (route squatted or never registered)")
	}
}

// TestTCPHandshakeNoProofOracle models the relay attack on the handshake
// itself: the attacker harvests a replica's challenge nonce, forwards it to
// a victim endpoint over a connection the attacker initiated, and hopes the
// victim MACs it (which the attacker could then replay to the replica to
// squat the victim's reply route). Endpoints must answer challenges only on
// connections they dialed themselves, for the peer they dialed.
func TestTCPHandshakeNoProofOracle(t *testing.T) {
	keys := authn.NewKeyStore("oracle-test")
	replica := ids.Replica(0)
	victim := ids.Client(0)

	// The victim listens (clients do, for symmetric deployments).
	vic, err := transport.NewTCPCodec(victim, map[ids.ProcessID]string{victim: "127.0.0.1:0"}, keys, wirecodec.Binary())
	if err != nil {
		t.Fatal(err)
	}
	defer vic.Close()

	// The attacker forwards a (fabricated) challenge claiming to come from the
	// replica over its own connection to the victim.
	att := dialRaw(t, vic.Addr())
	att.send(transport.Envelope{From: replica, To: victim, Payload: &transport.ConnChallenge{Nonce: make([]byte, 32)}})

	// The victim's own challenge (it accepted our connection) may arrive;
	// a ConnProof from the victim must not.
	deadline := time.After(500 * time.Millisecond)
	for {
		select {
		case env, ok := <-att.in:
			if !ok {
				return // connection closed: no proof leaked
			}
			if _, leaked := env.Payload.(*transport.ConnProof); leaked {
				t.Fatal("victim answered a challenge on a connection it did not dial: MAC oracle")
			}
		case <-deadline:
			return
		}
	}
}
