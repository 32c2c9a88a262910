package host

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/statesync"
	"abstractbft/internal/transport"
)

// tickingReplica counts its protocol ticks and the probes it handles, and
// spends busy time on each probe, so a client flooding probes keeps the
// host's inbox full.
type tickingReplica struct {
	ticks, probes *atomic.Int64
	cost          time.Duration
}

func (r tickingReplica) Handle(from ids.ProcessID, m any) {
	if _, ok := m.(*probeMessage); ok {
		r.probes.Add(1)
		for start := time.Now(); time.Since(start) < r.cost; {
		}
	}
}

func (r tickingReplica) ProtocolTick() { r.ticks.Add(1) }

// newTickingHost starts replica r3 of a one-fault cluster on net, running
// tickingReplica for every instance.
func newTickingHost(t *testing.T, net *transport.Local, tick, cost time.Duration) (*Host, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var ticks, probes atomic.Int64
	cluster := ids.NewCluster(1)
	h := New(Config{
		Cluster:      cluster,
		Replica:      cluster.Tail(),
		Keys:         authn.NewKeyStore("wake"),
		App:          app.NewKVStore(),
		Endpoint:     net.Endpoint(cluster.Tail()),
		NewProtocol:  func(*Host, *InstanceState) ProtocolReplica { return tickingReplica{&ticks, &probes, cost} },
		TickInterval: tick,
	})
	h.Start()
	t.Cleanup(h.Stop)
	return h, &ticks, &probes
}

// TestStopWithFullInbox: Stop's wake-up is dropped when the host's inbox is
// full, yet Stop returns promptly, because the event loop checks the stop
// flag after every envelope, not only on its own wake-up.
func TestStopWithFullInbox(t *testing.T) {
	const queue = 64
	net := transport.NewLocal(transport.Options{QueueLen: queue})
	t.Cleanup(net.Close)
	h, _, _ := newTickingHost(t, net, time.Hour, 0)
	self := h.ID()
	client := net.Endpoint(ids.Client(0))
	inbox := net.Endpoint(self).Inbox()
	stopped := make(chan struct{})
	h.Locked(func() {
		// The loop takes one envelope and blocks on the host lock in
		// dispatch; the rest fill the inbox.
		client.Send(self, &probeMessage{instance: core.FirstInstance})
		for len(inbox) > 0 {
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 2*queue; i++ {
			client.Send(self, &probeMessage{instance: core.FirstInstance})
		}
		if len(inbox) != queue {
			t.Errorf("inbox holds %d envelopes, want it full (%d)", len(inbox), queue)
		}
		go func() {
			h.Stop()
			close(stopped)
		}()
		// Stop's wake-up finds the inbox full and is dropped.
		time.Sleep(20 * time.Millisecond)
		if len(inbox) != queue {
			t.Errorf("inbox holds %d envelopes after Stop, want it still full (%d)", len(inbox), queue)
		}
	})
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatalf("Stop did not return with %d envelopes queued and its wake-up dropped", len(inbox))
	}
	if left := len(inbox); left < queue-2 {
		t.Fatalf("the loop drained %d envelopes after Stop, want it to return at the next one", queue-left)
	}
}

// TestTicksUnderSustainedTraffic floods the host with probes it handles
// slowly, so its inbox stays full and nearly every tick's wake-up is
// dropped. The tick must still drive ProtocolTick, the FETCH of an
// initialization missing bodies and the FETCH-STATE of an unfinished state
// transfer, because the tick's flag outlives its wake-up.
func TestTicksUnderSustainedTraffic(t *testing.T) {
	const (
		queue = 8
		tick  = 2 * time.Millisecond
		run   = 400 * time.Millisecond
	)
	net := transport.NewLocal(transport.Options{QueueLen: queue})
	t.Cleanup(net.Close)
	var fetches, fetchStates atomic.Int64
	net.AddFilter(func(env transport.Envelope) bool {
		switch env.Payload.(type) {
		case *core.FetchRequest:
			fetches.Add(1)
		case *statesync.FetchState:
			fetchStates.Add(1)
		}
		return true
	})
	h, ticks, probes := newTickingHost(t, net, tick, 50*time.Microsecond)
	self := h.ID()
	cluster := h.Cluster()

	// An unfinished state transfer no peer answers. The peers' endpoints
	// exist, so the filter sees what the host sends them.
	for _, r := range h.OtherReplicas() {
		net.Endpoint(r)
	}
	h.SyncState(0)
	// Instance 2's init history names two bodies no peer serves.
	keys := h.Keys()
	var signed []core.SignedAbort
	for _, r := range cluster.Replicas()[:cluster.Quorum()] {
		abort := core.AbortMessage{Instance: core.FirstInstance, Replica: r, Next: core.FirstInstance.Next(),
			Report: history.ReplicaReport{Suffix: history.DigestHistory{kvReq(1).Digest(), kvReq(2).Digest()}}}
		signed = append(signed, core.SignedAbort{Abort: abort, Sig: keys.Sign(r, abort.SignedBytes())})
	}
	init, err := core.BuildInitHistory(cluster, core.FirstInstance, signed, nil)
	if err != nil {
		t.Fatal(err)
	}
	client := net.Endpoint(ids.Client(0))
	client.Send(self, &core.InitMessage{Instance: init.For, Init: init})
	for h.InstanceStateFor(init.For) == nil {
		time.Sleep(time.Millisecond)
	}
	fetches.Store(0)
	fetchStates.Store(0)
	ticks.Store(0)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		probe := &probeMessage{instance: core.FirstInstance}
		for {
			select {
			case <-stop:
				return
			default:
				client.Send(self, probe)
				// Leave the tick's timer goroutine a processor.
				runtime.Gosched()
			}
		}
	}()
	inbox := net.Endpoint(self).Inbox()
	full, samples := 0, 0
	for end := time.Now().Add(run); time.Now().Before(end); time.Sleep(time.Millisecond) {
		samples++
		if len(inbox) == queue {
			full++
		}
	}
	close(stop)
	<-done

	t.Logf("%v: %d ticks, %d probes, %d FETCHes, %d FETCH-STATEs; inbox full in %d of %d samples",
		run, ticks.Load(), probes.Load(), fetches.Load(), fetchStates.Load(), full, samples)
	if full < samples/2 {
		t.Skipf("the flood kept the inbox full in only %d of %d samples; tick wake-ups were not dropped", full, samples)
	}
	// run/tick = 200 ticks; a tenth of them is plenty to tell a working tick
	// from one whose wake-ups are dropped.
	want := int64(run / tick / 10)
	if got := ticks.Load(); got < want {
		t.Errorf("%d protocol ticks in %v of traffic, want at least %d", got, run, want)
	}
	// Each tick re-sends the FETCH to every peer.
	if got, min := fetches.Load(), want*int64(len(h.OtherReplicas())); got < min {
		t.Errorf("%d FETCH retries in %v of traffic, want at least %d", got, run, min)
	}
	// A FETCH-STATE round (one per peer) goes out every syncRetryTicks.
	if got, min := fetchStates.Load(), int64(len(h.OtherReplicas())); got < min {
		t.Errorf("%d FETCH-STATE retries in %v of traffic, want at least one round (%d)", got, run, min)
	}
}

// TestHostIgnoresForeignWakeUps: a payload-free envelope another process
// sends looks like the host's own wake-up but carries no authority. A flood
// of them neither ticks the protocols nor stops the host, which goes on
// serving messages.
func TestHostIgnoresForeignWakeUps(t *testing.T) {
	net := transport.NewLocal(transport.Options{})
	t.Cleanup(net.Close)
	h, ticks, probes := newTickingHost(t, net, time.Hour, 0)
	self := h.ID()
	for _, from := range []ids.ProcessID{ids.Client(0), ids.Replica(0)} {
		ep := net.Endpoint(from)
		for i := 0; i < 100; i++ {
			ep.Send(self, nil)
		}
		ep.Send(self, &probeMessage{instance: core.FirstInstance})
	}
	for deadline := time.Now().Add(5 * time.Second); probes.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("host handled %d of 2 probes sent after foreign wake-ups", probes.Load())
		}
	}
	if got := ticks.Load(); got != 0 {
		t.Fatalf("foreign wake-ups ran %d protocol ticks, want none (tick interval 1h)", got)
	}
}
