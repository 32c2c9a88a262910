package transport

import (
	"testing"
	"time"

	"abstractbft/internal/ids"
)

func recvWithTimeout(t *testing.T, ep Endpoint, d time.Duration) (Envelope, bool) {
	t.Helper()
	select {
	case env, ok := <-ep.Inbox():
		return env, ok
	case <-time.After(d):
		return Envelope{}, false
	}
}

func TestLocalDelivery(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	a := net.Endpoint(ids.Replica(0))
	b := net.Endpoint(ids.Replica(1))
	a.Send(ids.Replica(1), "hello")
	env, ok := recvWithTimeout(t, b, time.Second)
	if !ok || env.Payload != "hello" || env.From != ids.Replica(0) {
		t.Fatalf("delivery failed: %+v ok=%v", env, ok)
	}
	msgs, _ := net.Stats()
	if msgs != 1 {
		t.Fatalf("stats report %d messages, want 1", msgs)
	}
}

func TestLocalLossAndFilters(t *testing.T) {
	net := NewLocal(Options{LossProbability: 1.0})
	defer net.Close()
	a := net.Endpoint(ids.Replica(0))
	b := net.Endpoint(ids.Replica(1))
	a.Send(ids.Replica(1), "dropped")
	if _, ok := recvWithTimeout(t, b, 50*time.Millisecond); ok {
		t.Fatalf("message delivered despite 100%% loss")
	}

	net2 := NewLocal(Options{})
	defer net2.Close()
	c := net2.Endpoint(ids.Replica(0))
	d := net2.Endpoint(ids.Replica(1))
	net2.AddFilter(func(env Envelope) bool { return env.Payload != "blocked" })
	c.Send(ids.Replica(1), "blocked")
	c.Send(ids.Replica(1), "allowed")
	env, ok := recvWithTimeout(t, d, time.Second)
	if !ok || env.Payload != "allowed" {
		t.Fatalf("filter misbehaved: %+v", env)
	}
	net2.ClearFilters()
	c.Send(ids.Replica(1), "blocked")
	if env, ok := recvWithTimeout(t, d, time.Second); !ok || env.Payload != "blocked" {
		t.Fatalf("filter not cleared")
	}
}

func TestLocalPartitions(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	a := net.Endpoint(ids.Replica(0))
	b := net.Endpoint(ids.Replica(1))
	net.Partition(ids.Replica(1), 1)
	a.Send(ids.Replica(1), "x")
	if _, ok := recvWithTimeout(t, b, 50*time.Millisecond); ok {
		t.Fatalf("message crossed a partition")
	}
	net.Heal()
	a.Send(ids.Replica(1), "y")
	if env, ok := recvWithTimeout(t, b, time.Second); !ok || env.Payload != "y" {
		t.Fatalf("message not delivered after healing")
	}
}

func TestLocalDelay(t *testing.T) {
	net := NewLocal(Options{Delay: SymmetricDelay(30 * time.Millisecond)})
	defer net.Close()
	a := net.Endpoint(ids.Replica(0))
	b := net.Endpoint(ids.Replica(1))
	start := time.Now()
	a.Send(ids.Replica(1), "slow")
	if _, ok := recvWithTimeout(t, b, time.Second); !ok {
		t.Fatalf("delayed message never delivered")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("message delivered after %v, expected at least ~30ms", elapsed)
	}
}

func TestMulticast(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	src := net.Endpoint(ids.Client(0))
	dests := []ids.ProcessID{ids.Replica(0), ids.Replica(1), ids.Replica(2)}
	eps := make([]Endpoint, len(dests))
	for i, d := range dests {
		eps[i] = net.Endpoint(d)
	}
	Multicast(src, dests, 7)
	for i, ep := range eps {
		if env, ok := recvWithTimeout(t, ep, time.Second); !ok || env.Payload != 7 {
			t.Fatalf("destination %d did not receive the multicast", i)
		}
	}
}

func TestTCPTransport(t *testing.T) {
	addrs := map[ids.ProcessID]string{
		ids.Replica(0): "127.0.0.1:0",
	}
	a, err := NewTCP(ids.Replica(0), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	addrs2 := map[ids.ProcessID]string{
		ids.Replica(0): a.Addr(),
		ids.Replica(1): "127.0.0.1:0",
	}
	b, err := NewTCP(ids.Replica(1), addrs2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	RegisterWireType("")
	b.Send(ids.Replica(0), "over-tcp")
	select {
	case env := <-a.Inbox():
		if env.Payload != "over-tcp" || env.From != ids.Replica(1) {
			t.Fatalf("unexpected envelope %+v", env)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("TCP message not delivered")
	}
}

// TestLocalSizerRunsOutsideLocks: the traffic sizer can be as slow as a full
// wire encode, so two concurrent senders must be able to sit in it at once.
func TestLocalSizerRunsOutsideLocks(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	net.Endpoint(ids.Replica(2))
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	net.SetSizer(func(any) int {
		entered <- struct{}{}
		<-release
		return 10
	})
	done := make(chan struct{}, 2)
	for _, from := range []ids.ProcessID{ids.Replica(0), ids.Replica(1)} {
		ep := net.Endpoint(from)
		go func() {
			ep.Send(ids.Replica(2), "sized")
			done <- struct{}{}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(2 * time.Second):
			close(release)
			t.Fatalf("only %d of 2 senders reached the sizer: it runs under a network lock", i)
		}
	}
	close(release)
	<-done
	<-done
	if msgs, bytes := net.Stats(); msgs != 2 || bytes != 20 {
		t.Fatalf("Stats = %d messages, %d bytes; want 2, 20", msgs, bytes)
	}
}
