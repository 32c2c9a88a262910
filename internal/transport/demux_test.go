package transport

import (
	"runtime"
	"testing"
	"time"

	"abstractbft/internal/ids"
)

// scopedPayload answers the request at one timestamp, like a RESP.
type scopedPayload struct{ ts uint64 }

func (p scopedPayload) RequestTimestamp() uint64 { return p.ts }

// TestDemuxRoutesByRequest: with eight open subscriptions a request-scoped
// payload reaches exactly the subscription that owns its timestamp, a payload
// naming no request (an AbortReply) reaches all of them, and payloads for a
// closed subscription are dropped without ever blocking the deliverer.
func TestDemuxRoutesByRequest(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	sender := net.Endpoint(ids.Replica(0))
	d := NewDemux(net.Endpoint(ids.Client(0)))
	defer d.Close()

	const n = 8
	subs := make([]Endpoint, n)
	for i := range subs {
		subs[i] = d.Open(uint64(100 + i))
	}

	// Local routes on the sender's goroutine, in order, so by the time a
	// subscription sees the broadcast everything routed to it earlier is
	// already queued ahead of it.
	sender.Send(ids.Client(0), scopedPayload{ts: 103})
	sender.Send(ids.Client(0), "abort")
	for i, s := range subs {
		env, ok := recvWithTimeout(t, s, time.Second)
		if i == 3 {
			if !ok || env.Payload != (scopedPayload{ts: 103}) {
				t.Fatalf("owner of ts 103 got %+v ok=%v, want its reply first", env, ok)
			}
			env, ok = recvWithTimeout(t, s, time.Second)
		}
		if !ok || env.Payload != "abort" {
			t.Fatalf("subscription %d got %+v ok=%v, want only the broadcast", i, env, ok)
		}
	}

	// More replies for a completed invocation than any queue holds, then a
	// reply nobody ever owned: all dropped, routing goes on.
	subs[5].Close()
	for i := 0; i < 2*demuxQueueLen; i++ {
		sender.Send(ids.Client(0), scopedPayload{ts: 105})
	}
	sender.Send(ids.Client(0), scopedPayload{ts: 999})
	sender.Send(ids.Client(0), "after")
	for i, s := range subs {
		if i == 5 {
			continue
		}
		if env, ok := recvWithTimeout(t, s, 5*time.Second); !ok || env.Payload != "after" {
			t.Fatalf("subscription %d got %+v ok=%v after replies to a closed one, want the broadcast", i, env, ok)
		}
	}

	// A timestamp reopened by a later invocation (a fallback after a batch
	// attempt) belongs to the new subscription.
	again := d.Open(105)
	sender.Send(ids.Client(0), scopedPayload{ts: 105})
	if env, ok := recvWithTimeout(t, again, time.Second); !ok || env.Payload != (scopedPayload{ts: 105}) {
		t.Fatalf("reopened timestamp got %+v ok=%v", env, ok)
	}
}

// TestDemuxOpenCloseAllocBudget: a pipelined client opens one subscription
// per invocation; in steady state that must not allocate a fresh
// demuxQueueLen-slot inbox (40 kB) each time.
func TestDemuxOpenCloseAllocBudget(t *testing.T) {
	net := NewLocal(Options{})
	defer net.Close()
	d := NewDemux(net.Endpoint(ids.Client(0)))
	defer d.Close()
	cycle := func(ts uint64) { d.Open(ts).Close() }
	cycle(0) // the first subscription creates the inbox later ones reuse

	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(1); i <= rounds; i++ {
		cycle(i)
	}
	runtime.ReadMemStats(&after)
	if perCycle := (after.TotalAlloc - before.TotalAlloc) / rounds; perCycle > 512 {
		t.Fatalf("Open+Close allocates %d B per cycle, want a small constant (an inbox is ~40 kB)", perCycle)
	}
}
