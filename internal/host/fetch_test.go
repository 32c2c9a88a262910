package host

import (
	"sync/atomic"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// probeMessage is a protocol message of one instance, for tests that follow
// a message through the host to the instance's protocol replica.
type probeMessage struct{ instance core.InstanceID }

func (m *probeMessage) AbstractInstance() core.InstanceID { return m.instance }

// probeReplica counts the probe messages it handles (under the host lock).
type probeReplica struct{ probes *int }

func (r probeReplica) Handle(from ids.ProcessID, m any) {
	if _, ok := m.(*probeMessage); ok {
		*r.probes++
	}
}

// TestLostFetchResponseRetriedFromTick: a replica that adopts an init history
// naming bodies it lacks FETCHes them from its peers. Here only one peer
// answers, and the network loses its first FETCH response; the host tick
// must re-send the FETCH, so the instance still initializes within a few
// ticks. A protocol message that arrives meanwhile is held and delivered
// once the instance initializes.
func TestLostFetchResponseRetriedFromTick(t *testing.T) {
	const tick = 10 * time.Millisecond
	net := transport.NewLocal(transport.Options{})
	t.Cleanup(net.Close)
	cluster := ids.NewCluster(1)
	keys := authn.NewKeyStore("fetch-retry")
	self := cluster.Tail()
	probes := 0
	h := New(Config{
		Cluster:      cluster,
		Replica:      self,
		Keys:         keys,
		App:          app.NewKVStore(),
		Endpoint:     net.Endpoint(self),
		NewProtocol:  func(*Host, *InstanceState) ProtocolReplica { return probeReplica{&probes} },
		TickInterval: tick,
	})
	h.Start()
	t.Cleanup(h.Stop)

	// Instance 2's init history names two requests this replica never saw.
	want := []msg.Request{kvReq(1), kvReq(2)}
	var signed []core.SignedAbort
	for _, r := range cluster.Replicas()[:cluster.Quorum()] {
		abort := core.AbortMessage{
			Instance: core.FirstInstance,
			Replica:  r,
			Next:     core.FirstInstance.Next(),
			Report:   history.ReplicaReport{Suffix: history.DigestHistory{want[0].Digest(), want[1].Digest()}},
		}
		signed = append(signed, core.SignedAbort{Abort: abort, Sig: keys.Sign(r, abort.SignedBytes())})
	}
	init, err := core.BuildInitHistory(cluster, core.FirstInstance, signed, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Replica 0 serves every FETCH; the first response it sends is lost.
	peer := net.Endpoint(cluster.Head())
	var fetches atomic.Int32
	var lost atomic.Bool
	net.AddFilter(func(env transport.Envelope) bool {
		_, isResp := env.Payload.(*core.FetchResponse)
		return !isResp || lost.Swap(true)
	})
	go func() {
		for env := range peer.Inbox() {
			if m, ok := env.Payload.(*core.FetchRequest); ok {
				fetches.Add(1)
				peer.Send(env.From, &core.FetchResponse{Instance: m.Instance, Requests: want})
			}
		}
	}()

	start := time.Now()
	client := net.Endpoint(ids.Client(0))
	client.Send(self, &core.InitMessage{Instance: init.For, Init: init})
	client.Send(self, &probeMessage{instance: init.For})
	deadline := start.Add(50 * tick)
	for {
		initialized, handled := false, 0
		if st := h.InstanceStateFor(init.For); st != nil {
			h.Locked(func() { initialized, handled = st.Initialized, probes })
		}
		if initialized {
			if handled != 1 {
				t.Fatalf("the probe sent while instance %d fetched its bodies was handled %d times, want once", init.For, handled)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("instance %d not initialized after %d FETCHes", init.For, fetches.Load())
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("initialized after %v (%d FETCHes, tick %v)", time.Since(start), fetches.Load(), tick)
	if fetches.Load() < 2 {
		t.Fatalf("initialized after %d FETCHes; the test lost the only response, so the FETCH must have been retried", fetches.Load())
	}
}
