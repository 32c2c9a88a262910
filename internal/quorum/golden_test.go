package quorum

import (
	"encoding/hex"
	"testing"

	"abstractbft/internal/core"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// TestGoldenAuthBytes pins the client-authenticator input, for a single
// request and for a batch, to the bytes the request-hashing helpers produced
// before they took the digest their caller already holds.
func TestGoldenAuthBytes(t *testing.T) {
	a := msg.Request{Client: ids.Client(7), Timestamp: 0x0102030405060708, Command: []byte("put k v")}
	b := msg.Request{Client: ids.Client(0), Timestamp: 1, ReadOnly: true}
	single := core.ClientAuthBytes(5, a.Digest())
	if got, want := hex.EncodeToString(single[:]), "0000000000000005f9376773f11665741029b970b16b6319db18161a5fae9607a6f7b11fc0d049da"; got != want {
		t.Errorf("AuthBytes(request) = %s, want %s", got, want)
	}
	batch := core.ClientAuthBytes(5, msg.BatchOf(a, b).Digest())
	if got, want := hex.EncodeToString(batch[:]), "0000000000000005e3957792d9a8088946752c2c18b70dcf55a0a8d3ef9594c986362d442c5460ed"; got != want {
		t.Errorf("AuthBytes(batch) = %s, want %s", got, want)
	}
}
