package deploy_test

import (
	"context"
	"testing"
	"time"

	"abstractbft/internal/compose"
	"abstractbft/internal/deploy"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
)

// TestQuorumMACsPerRequest pins the key store's MAC count (the one crypto-op
// count the repository keeps, authn_mac_ops_total) on Aliph's contention-free
// Quorum path. At f = 1 a committed request costs 4N = 16 MAC operations: the
// client's N-MAC authenticator, one authenticator-entry verify per replica,
// one RESP MAC per replica, and the client's N RESP verifies. Fifty requests
// stay below CHK = 128 and Δ = 1 s keeps every timer quiet, so no checkpoint
// or switch adds MACs of its own.
func TestQuorumMACsPerRequest(t *testing.T) {
	cluster, err := deploy.New(deploy.Config{
		F:           1,
		Composition: compose.MustNew("aliph", compose.Options{}),
		Delta:       time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	reg := obs.NewRegistry()
	cluster.Keys.SetMetrics(reg)
	macs := reg.Counter("authn_mac_ops_total")
	client, err := cluster.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const perRequest = 4 * 4 // 4N at N = 3f+1 = 4
	for ts := uint64(1); ts <= 50; ts++ {
		before := macs.Value()
		if _, err := client.Invoke(ctx, msg.Request{Client: ids.Client(0), Timestamp: ts, Command: []byte("op")}); err != nil {
			t.Fatalf("request %d: %v", ts, err)
		}
		if got := macs.Value() - before; got != perRequest {
			t.Fatalf("request %d cost %d MAC operations, want %d", ts, got, perRequest)
		}
	}
	if n := client.Switches(); n != 0 {
		t.Fatalf("%d instance switches, want 0", n)
	}
}
