package host_test

import (
	"net"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/statesync"
	"abstractbft/internal/transport"
	"abstractbft/internal/transport/wirecodec"
)

type nopReplica struct{}

func (nopReplica) Handle(ids.ProcessID, any) {}

// TestForgedStateOverTCPNeverAdopted: a process holding no key dials a
// replica that is catching up through state transfer and sends it f+1 STATE
// responses under the identities of two other replicas, agreeing on a
// forged snapshot. Over TCP a connection delivers only what its proven peer
// sends, so the replica never counts them and never adopts the state.
func TestForgedStateOverTCPNeverAdopted(t *testing.T) {
	cluster := ids.NewCluster(1)
	self := ids.Replica(1)
	// The other replicas are down: their listed addresses refuse dials.
	addrs := map[ids.ProcessID]string{self: "127.0.0.1:0"}
	for _, r := range cluster.Others(self) {
		addrs[r] = "127.0.0.1:1"
	}
	keys := authn.NewKeyStore("forged-state")
	ep, err := transport.NewTCPCodec(self, addrs, keys, wirecodec.Binary())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	kv := app.NewKVStore()
	h := host.New(host.Config{
		Cluster:     cluster,
		Replica:     self,
		Keys:        keys,
		App:         kv,
		Endpoint:    ep,
		NewProtocol: func(*host.Host, *host.InstanceState) host.ProtocolReplica { return nopReplica{} },
	})
	h.Start()
	defer h.Stop()
	h.SyncState(0)

	forged := app.NewKVStore()
	forged.Execute(app.EncodeKVPut("owner", "attacker"))
	snap := statesync.NewSnapshot(128, authn.Hash([]byte("forged history")), forged.Snapshot(), nil, nil)
	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wirecodec.Binary().NewEncoder(conn)
	for _, r := range []ids.ProcessID{ids.Replica(0), ids.Replica(2)} {
		env := transport.Envelope{From: r, To: self, Payload: &statesync.State{
			Instance: core.FirstInstance, BodiesFrom: r, Snap: snap,
		}}
		if err := enc.Encode(&env); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if !h.Syncing() {
			seq, _ := h.AppliedState()
			var owner string
			h.Locked(func() { owner = kv.Get("owner") })
			t.Fatalf("replica adopted the forged state: applied seq %d, owner=%q", seq, owner)
		}
	}
}
