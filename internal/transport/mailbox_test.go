package transport

import (
	"runtime"
	"sync"
	"testing"

	"abstractbft/internal/ids"
)

// TestMailboxRouteTakesQueuedEnvelopes: a route attached to a mailbox first
// receives the envelopes already queued there, in order, and then every later
// one with a payload; payload-free envelopes (its own wake-ups and another
// process's) stay in the inbox, and a detached route receives nothing more.
func TestMailboxRouteTakesQueuedEnvelopes(t *testing.T) {
	self, other := ids.Client(0), ids.Replica(1)
	m := NewMailbox(self, 16)
	m.Deliver(Envelope{From: other, To: self, Payload: "a"})
	m.Wake()
	m.Deliver(Envelope{From: other, To: self, Payload: &Packed{Payloads: []any{"b", "c"}}})

	var routed []any
	m.Route(func(env Envelope) { routed = append(routed, env.Payload) })
	m.Deliver(Envelope{From: other, To: self, Payload: "d"})
	m.Deliver(Envelope{From: other, To: self})
	if len(routed) != 4 || routed[0] != "a" || routed[1] != "b" || routed[2] != "c" || routed[3] != "d" {
		t.Fatalf("route received %v, want [a b c d]", routed)
	}
	for _, from := range []ids.ProcessID{self, other} {
		if env := <-m.Inbox(); env.Payload != nil || env.From != from {
			t.Fatalf("inbox holds %+v, want the payload-free envelope from %v", env, from)
		}
	}

	m.Route(nil)
	m.Deliver(Envelope{From: other, To: self, Payload: "e"})
	if len(routed) != 4 || len(m.Inbox()) != 1 {
		t.Fatalf("after detaching: route received %v, inbox holds %d", routed, len(m.Inbox()))
	}
	m.Close()
	m.Deliver(Envelope{From: other, To: self, Payload: "f"})
	m.Wake()
	if env := <-m.Inbox(); env.Payload != "e" {
		t.Fatalf("inbox holds %+v, want e", env)
	}
	if env, ok := <-m.Inbox(); ok {
		t.Fatalf("closed mailbox queued %+v", env)
	}
}

// TestNewDemuxStartsNoGoroutine: a demux routes on its deliverers'
// goroutines, so attaching many starts none.
func TestNewDemuxStartsNoGoroutine(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	const n = 64
	before := runtime.NumGoroutine()
	demuxes := make([]*Demux, n)
	for i := range demuxes {
		demuxes[i] = NewDemux(net.Endpoint(ids.Client(i)))
	}
	if grown := runtime.NumGoroutine() - before; grown >= n/2 {
		t.Fatalf("%d demuxes added %d goroutines", n, grown)
	}
	for _, d := range demuxes {
		d.Close()
	}
}

// TestDemuxTakesQueuedReplies: replies queued on the endpoint before the
// demux attaches are routed by it, not stranded in an inbox no one reads.
func TestDemuxTakesQueuedReplies(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	sender := net.Endpoint(ids.Replica(0))
	ep := net.Endpoint(ids.Client(0))
	sender.Send(ids.Client(0), "stale")
	ep.Wake()
	d := NewDemux(ep)
	defer d.Close()
	if n := len(ep.Inbox()); n != 1 {
		t.Fatalf("endpoint inbox holds %d envelopes, want only its wake-up", n)
	}
	if env := <-ep.Inbox(); env.Payload != nil {
		t.Fatalf("endpoint inbox holds %+v, want its wake-up", env)
	}
}

// TestDemuxNeverRoutesPayloadFree: a payload-free envelope another process
// sends reaches no subscription; a subscription's own wake-up reaches it
// alone.
func TestDemuxNeverRoutesPayloadFree(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	sender := net.Endpoint(ids.Replica(0))
	d := NewDemux(net.Endpoint(ids.Client(0)))
	defer d.Close()
	a, b := d.Open(1), d.Open(2)
	sender.Send(ids.Client(0), nil)
	a.Wake()
	sender.Send(ids.Client(0), "after")
	if env := <-a.Inbox(); env.Payload != nil || env.From != ids.Client(0) {
		t.Fatalf("subscription got %+v first, want its own wake-up", env)
	}
	for _, s := range []Endpoint{a, b} {
		if env := <-s.Inbox(); env.Payload != "after" {
			t.Fatalf("subscription got %+v, want the payload sent after the payload-free envelope", env)
		}
	}
}

// TestDemuxCloseRacesDeliveries: deliveries racing Close never panic (run
// with -race), Close closes every subscription's inbox, nothing is routed
// after it, and the endpoint's own inbox receives again.
func TestDemuxCloseRacesDeliveries(t *testing.T) {
	for round := 0; round < 20; round++ {
		net := NewLocal(Options{})
		ep := net.Endpoint(ids.Client(0))
		d := NewDemux(ep)
		subs := []Endpoint{d.Open(1), d.Open(2)}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for i := 0; i < 4; i++ {
			sender := net.Endpoint(ids.Replica(i))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					sender.Send(ids.Client(0), scopedPayload{ts: 1})
					sender.Send(ids.Client(0), "broadcast")
				}
			}()
		}
		<-subs[1].Inbox() // deliveries are under way
		d.Close()
		close(stop)
		wg.Wait()
		for len(ep.Inbox()) > 0 { // what the senders sent after Close
			<-ep.Inbox()
		}
		net.Endpoint(ids.Replica(0)).Send(ids.Client(0), "late")
		for i, s := range subs {
			for env := range s.Inbox() {
				if env.Payload == "late" {
					t.Fatalf("subscription %d received a delivery made after Close", i)
				}
			}
		}
		if env, ok := <-d.Open(3).Inbox(); ok {
			t.Fatalf("subscription opened after Close received %+v", env)
		}
		if env := <-ep.Inbox(); env.Payload != "late" {
			t.Fatalf("after Close the endpoint's own inbox received %+v, want the late delivery", env)
		}
		net.Close()
	}
}
