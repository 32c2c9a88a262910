package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/compose"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/transport"
)

// TestForgedMergedVotesNeverAgree: this test's loopback endpoint lets one
// Byzantine replica send its merged-boundary votes under f+1 envelope
// senders, which no authenticated link would. The MergedState MAC is the
// second line: votes whose MAC does not verify for their sender must never
// form an agreement; the same votes MACed by their senders do.
func TestForgedMergedVotesNeverAgree(t *testing.T) {
	cluster := ids.NewCluster(1)
	keys := authn.NewKeyStore("merged-votes")
	comp := compose.MustNew("azyzzyva", compose.Options{})
	self := ids.Replica(3)
	byzantine := ids.Replica(2)
	claimed := []ids.ProcessID{ids.Replica(0), ids.Replica(1)} // f+1 identities

	recoverWith := func(mac func(from ids.ProcessID, data []byte) authn.MAC) error {
		ep := newLoopEndpoint()
		n := NewNode(NodeConfig{
			Shards:   2,
			Cluster:  cluster,
			Replica:  self,
			Keys:     keys,
			Endpoint: ep,
			NewApp:   func() app.Application { return app.NewKVStore() },
			NewProtocol: func(_ int, cl ids.Cluster) host.ProtocolFactory {
				return comp.ReplicaFactory(cl)
			},
		})
		defer n.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		errc := make(chan error, 1)
		go func() { errc <- n.RecoverFromPeers(ctx) }()

		// Vote only once the node has asked, so its collector is live.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if mk, ok := ep.lastSent().(*Mark); ok && mk.Shard == controlShard {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("recovering node never sent a MergedQuery")
			}
		}
		data := mergedVoteBytes(0, authn.Digest{})
		for _, from := range claimed {
			vote := &MergedState{MAC: mac(from, data[:])}
			ep.Deliver(transport.Envelope{From: from, To: self, Payload: &Mark{Shard: controlShard, Payload: vote}})
		}
		return <-errc
	}

	forged := func(_ ids.ProcessID, data []byte) authn.MAC { return keys.MAC(byzantine, self, data) }
	if err := recoverWith(forged); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forged votes under %d claimed identities: RecoverFromPeers = %v, want deadline exceeded", len(claimed), err)
	}
	honest := func(from ids.ProcessID, data []byte) authn.MAC { return keys.MAC(from, self, data) }
	if err := recoverWith(honest); err != nil {
		t.Fatalf("votes MACed by their responders did not agree: %v", err)
	}
}
