package shard

import (
	"runtime"
	"sync"
	"testing"

	"abstractbft/internal/ids"
	"abstractbft/internal/transport"
)

// TestNewRouterStartsNoGoroutine: a router routes on its deliverers'
// goroutines, so attaching many starts none.
func TestNewRouterStartsNoGoroutine(t *testing.T) {
	net := transport.NewLocal(transport.Options{})
	defer net.Close()
	const n = 64
	before := runtime.NumGoroutine()
	routers := make([]*Router, n)
	for i := range routers {
		routers[i] = NewRouter(net.Endpoint(ids.Client(i)), 2)
	}
	if grown := runtime.NumGoroutine() - before; grown >= n/2 {
		t.Fatalf("%d routers added %d goroutines", n, grown)
	}
	for _, r := range routers {
		r.Close()
	}
}

// TestRouterTakesQueuedEnvelopes: an envelope queued on the endpoint before
// the router attaches reaches its shard by the time NewRouter returns.
func TestRouterTakesQueuedEnvelopes(t *testing.T) {
	net := transport.NewLocal(transport.Options{})
	defer net.Close()
	ep := net.Endpoint(ids.Replica(0))
	net.Endpoint(ids.Replica(1)).Send(ids.Replica(0), &Mark{Shard: 1, Payload: "early"})
	r := NewRouter(ep, 2)
	defer r.Close()
	select {
	case env := <-r.Endpoint(1).Inbox():
		if env.Payload != "early" || env.From != ids.Replica(1) {
			t.Fatalf("shard 1 received %+v", env)
		}
	default:
		t.Fatal("an envelope queued before the router attached never reached its shard")
	}
}

// TestRouterFullShardDrops: a full shard mailbox drops what arrives without
// blocking the deliverer, and another shard on the same endpoint still
// receives.
func TestRouterFullShardDrops(t *testing.T) {
	net := transport.NewLocal(transport.Options{})
	defer net.Close()
	sender := net.Endpoint(ids.Replica(1))
	r := NewRouter(net.Endpoint(ids.Replica(0)), 2)
	defer r.Close()
	mk := &Mark{Shard: 0, Payload: "fill"}
	for i := 0; i < routerQueueLen+100; i++ {
		sender.Send(ids.Replica(0), mk)
	}
	sender.Send(ids.Replica(0), &Mark{Shard: 1, Payload: "other"})
	if n := len(r.Endpoint(0).Inbox()); n != routerQueueLen {
		t.Fatalf("full shard holds %d envelopes, want %d", n, routerQueueLen)
	}
	if env := <-r.Endpoint(1).Inbox(); env.Payload != "other" {
		t.Fatalf("shard 1 received %+v", env)
	}
}

// TestRouterExpandsMarkedPack: a Mark-wrapped pack reaches its shard as its
// payloads, in order, each carrying the pack envelope's sender.
func TestRouterExpandsMarkedPack(t *testing.T) {
	ep := newLoopEndpoint()
	r := NewRouter(ep, 2)
	defer r.Close()
	ep.Deliver(transport.Envelope{
		From: ids.Replica(2), To: ids.Replica(0),
		Payload: &Mark{Shard: 1, Payload: &transport.Packed{Payloads: []any{"a", "b", "c"}}},
	})
	for _, want := range []string{"a", "b", "c"} {
		env := <-r.Endpoint(1).Inbox()
		if env.Payload != want || env.From != ids.Replica(2) {
			t.Fatalf("shard 1 received %+v, want %q from r2", env, want)
		}
	}
}

// TestRouterNeverRoutesPayloadFree: a payload-free envelope from another
// process, bare or marked, reaches no shard and not the control endpoint.
func TestRouterNeverRoutesPayloadFree(t *testing.T) {
	ep := newLoopEndpoint()
	r := NewRouter(ep, 2)
	defer r.Close()
	from := ids.Replica(2)
	for _, payload := range []any{nil, &Mark{Shard: 0}, &Mark{Shard: 1}, &Mark{Shard: controlShard}} {
		ep.Deliver(transport.Envelope{From: from, To: ids.Replica(0), Payload: payload})
	}
	ep.Deliver(transport.Envelope{From: from, To: ids.Replica(0), Payload: &Mark{Shard: controlShard, Payload: "ctl"}})
	for s := 0; s < 2; s++ {
		if n := len(r.Endpoint(s).Inbox()); n != 0 {
			t.Fatalf("shard %d holds %d envelopes, want none", s, n)
		}
	}
	if env := <-r.Control().Inbox(); env.Payload != "ctl" {
		t.Fatalf("control endpoint received %+v first", env)
	}
}

// TestRouterCloseRacesDeliveries: deliveries racing Close never panic (run
// with -race), Close closes every shard's inbox, nothing is routed after it,
// and the endpoint's own inbox receives again.
func TestRouterCloseRacesDeliveries(t *testing.T) {
	for round := 0; round < 20; round++ {
		net := transport.NewLocal(transport.Options{})
		ep := net.Endpoint(ids.Replica(0))
		r := NewRouter(ep, 2)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for i := 1; i <= 3; i++ {
			sender := net.Endpoint(ids.Replica(i))
			wg.Add(1)
			go func() {
				defer wg.Done()
				marks := []*Mark{{Shard: 0, Payload: "x"}, {Shard: 1, Payload: "x"}, {Shard: controlShard, Payload: "x"}}
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, mk := range marks {
						sender.Send(ids.Replica(0), mk)
					}
				}
			}()
		}
		<-r.Endpoint(1).Inbox() // deliveries are under way
		r.Close()
		close(stop)
		wg.Wait()
		for len(ep.Inbox()) > 0 { // what the senders sent after Close
			<-ep.Inbox()
		}
		late := &Mark{Shard: 1, Payload: "late"}
		net.Endpoint(ids.Replica(1)).Send(ids.Replica(0), late)
		for _, sub := range []transport.Endpoint{r.Endpoint(0), r.Endpoint(1), r.Control()} {
			for env := range sub.Inbox() {
				if env.Payload == "late" {
					t.Fatal("a delivery made after Close reached a shard")
				}
			}
		}
		if env := <-ep.Inbox(); env.Payload != late {
			t.Fatalf("after Close the endpoint's own inbox received %+v, want the late delivery", env)
		}
		net.Close()
	}
}

// TestRouterMarkAllocs: one Mark-wrapped envelope through Local, the router
// and a shard mailbox allocates nothing.
func TestRouterMarkAllocs(t *testing.T) {
	net := transport.NewLocal(transport.Options{})
	defer net.Close()
	sender := net.Endpoint(ids.Replica(1))
	r := NewRouter(net.Endpoint(ids.Replica(0)), 2)
	defer r.Close()
	in := r.Endpoint(1).Inbox()
	mk := &Mark{Shard: 1, Payload: "m"}
	if allocs := testing.AllocsPerRun(1000, func() {
		sender.Send(ids.Replica(0), mk)
		<-in
	}); allocs != 0 {
		t.Fatalf("a marked envelope through Local and the router allocates %.2f times", allocs)
	}
}
