package wirecodec_test

import (
	"encoding/hex"
	"testing"

	"abstractbft/internal/authn"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/statesync"
	"abstractbft/internal/transport/wirecodec"
)

// TestGoldenLazySnapshotState pins the identity and the wire form of a
// snapshot whose payload digest the store computes on first read-out to the
// bytes the eager NewSnapshot produces for the same (application state,
// windows, rings): the AppDigest f+1 replicas must agree on, and the encoded
// STATE message a fetcher receives (instance, BodiesFrom, snapshot, suffix;
// the responder is the envelope's sender). Windows and rings are listed out
// of client order, as a host's map iteration hands them over.
func TestGoldenLazySnapshotState(t *testing.T) {
	const (
		goldenAppDigest = "1d8d691ddf7282212c7869ac909d901fc6c9363d089120a17c93f0db533ba3ec"
		goldenState     = "00290000000000000003000000020000000000000080f81f76afc39d00a59f963e440c8db96db25b28325da9" +
			"ab0e2fc4fc9ae5adcfe01d8d691ddf7282212c7869ac909d901fc6c9363d089120a17c93f0db533ba3ec000000096170" +
			"702d737461746500000003001000020000000000000046000000000000ffff0010000000000000000000090000000000" +
			"0001ff001000010000010000000000000000000000000100000002001000010000000100000100000000000000000100" +
			"0000046c6174650010000000000003000000000000000700000000000000080000000000000009000000030000000161" +
			"00000000000000036363630000000001b2d1a1689219d6002ef26c55b35978e1f547f122ca342e2f8796d0f81b0c440d" +
			"0000000100100000000000000000000a00000000046e657874"
	)
	windows := []statesync.ClientWindow{
		{Client: ids.Client(2), High: 70, Mask: 0xffff},
		{Client: ids.Client(0), High: 9, Mask: 0x1ff},
		{Client: ids.Client(1), High: 1 << 40, Mask: 1},
	}
	rings := []statesync.ClientRing{
		{Client: ids.Client(1), Timestamps: []uint64{1 << 40}, Replies: [][]byte{[]byte("late")}},
		{Client: ids.Client(0), Timestamps: []uint64{7, 8, 9}, Replies: [][]byte{[]byte("a"), nil, []byte("ccc")}},
	}
	hist := authn.Hash([]byte("history up to 128"))

	// As the host captures it: no digest yet.
	store := statesync.NewStore(0)
	store.Add(statesync.Snapshot{Seq: 128, HistDigest: hist, AppState: []byte("app-state"), Windows: windows, Rings: rings})
	if seq, ok := store.BoundaryAtOrBelow(200); !ok || seq != 128 {
		t.Fatalf("BoundaryAtOrBelow(200) = %d, %v, want 128", seq, ok)
	}
	sn, ok := store.LatestAtOrBelow(200)
	if !ok {
		t.Fatal("snapshot not retained")
	}
	if got := hex.EncodeToString(sn.AppDigest[:]); got != goldenAppDigest {
		t.Errorf("lazily computed AppDigest = %s, want %s", got, goldenAppDigest)
	}
	if eager := statesync.NewSnapshot(128, hist, []byte("app-state"), windows, rings); eager.AppDigest != sn.AppDigest {
		t.Errorf("NewSnapshot computes AppDigest %v, the store %v", eager.AppDigest, sn.AppDigest)
	}
	if again, _ := store.At(128); again.AppDigest != sn.AppDigest {
		t.Errorf("second read-out carries AppDigest %v, first %v", again.AppDigest, sn.AppDigest)
	}

	req := msg.Request{Client: ids.Client(0), Timestamp: 10, Command: []byte("next")}
	state := &statesync.State{Instance: 3, BodiesFrom: ids.Replica(2), Snap: sn,
		SuffixDigests: history.DigestHistory{req.Digest()}, SuffixRequests: []msg.Request{req}}
	b, err := wirecodec.MarshalWire(state)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != goldenState {
		t.Errorf("encoded STATE (%d bytes) = %s, want %s", len(b), got, goldenState)
	}
}
