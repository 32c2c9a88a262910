package host_test

import (
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/quorum"
	"abstractbft/internal/transport"
)

// TestLateMessageNeverRecreatesFirstInstance: every replica of a Quorum
// cluster first meets the composition through the InitMessage of instance 2
// (built from 2f+1 signed aborts of an empty instance 1). A REQ and a PANIC
// of instance 1 that arrive afterwards must find instance 1 stopped: no
// replica logs or executes the request outside the agreed history.
func TestLateMessageNeverRecreatesFirstInstance(t *testing.T) {
	keys := authn.NewKeyStore("activation-test")
	net := transport.NewLocal(transport.Options{})
	cluster := ids.NewCluster(1)
	var hosts []*host.Host
	for i := 0; i < cluster.N; i++ {
		h := host.New(host.Config{
			Cluster:     cluster,
			Replica:     ids.Replica(i),
			Keys:        keys,
			App:         app.NewKVStore(),
			Endpoint:    net.Endpoint(ids.Replica(i)),
			NewProtocol: quorum.NewReplica(),
		})
		h.Start()
		hosts = append(hosts, h)
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			h.Stop()
		}
		net.Close()
	})

	var signed []core.SignedAbort
	for r := 0; r < cluster.Quorum(); r++ {
		abort := core.AbortMessage{Instance: core.FirstInstance, Replica: ids.Replica(r), Next: 2}
		signed = append(signed, core.SignedAbort{Abort: abort, Sig: keys.Sign(ids.Replica(r), abort.SignedBytes())})
	}
	ih, err := core.BuildInitHistory(cluster, core.FirstInstance, signed, nil)
	if err != nil {
		t.Fatal(err)
	}
	switcher := net.Endpoint(ids.Client(0))
	transport.Multicast(switcher, cluster.Replicas(), &core.InitMessage{Instance: 2, Init: ih})
	for i, h := range hosts {
		for deadline := time.Now().Add(5 * time.Second); h.ActiveInstance() != 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d did not activate instance 2", i)
			}
		}
	}

	// A second client, still in instance 1, sends a put and then panics.
	env := core.ClientEnv{Cluster: cluster, Keys: keys, ID: ids.Client(1), Endpoint: net.Endpoint(ids.Client(1))}
	req := msg.Request{Client: env.ID, Timestamp: 1, Command: app.EncodeKVPut("late", "v")}
	transport.Multicast(env.Endpoint, cluster.Replicas(), env.NewRequest(core.FirstInstance, req, nil))
	transport.Multicast(env.Endpoint, cluster.Replicas(), &core.PanicMessage{Instance: core.FirstInstance, Timestamp: 1})

	// Links are FIFO: a replica's ABORT for the PANIC comes after it handled
	// the REQ.
	aborted := map[ids.ProcessID]bool{}
	timeout := time.After(5 * time.Second)
	for len(aborted) < cluster.N {
		select {
		case e := <-env.Endpoint.Inbox():
			if a, ok := e.Payload.(*core.AbortReply); ok && a.Instance == core.FirstInstance {
				aborted[e.From] = true
			}
		case <-timeout:
			t.Fatalf("ABORTs for instance 1 from %v only", aborted)
		}
	}
	for i, h := range hosts {
		if got := applied(h); got != 0 {
			t.Errorf("replica %d applied %d requests of instance 1 after switching to 2", i, got)
		}
		if v := h.Application().(*app.KVStore).Get("late"); v != "" {
			t.Errorf("replica %d executed the late put: late=%q", i, v)
		}
		st := h.InstanceStateFor(core.FirstInstance)
		stopped := false
		h.Locked(func() { stopped = st != nil && st.Stopped })
		if !stopped {
			t.Errorf("replica %d: instance 1 is live below active instance %d", i, h.ActiveInstance())
		}
	}
}
