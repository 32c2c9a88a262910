package msg

import (
	"encoding/hex"
	"testing"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
)

// The golden values below were produced by the bytes.Buffer encoders this
// package used before its digests were computed in place: a faster encoder
// must not be a different one, since every digest, MAC and signature over a
// request is computed from these bytes.

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

func goldenRequests() (a, b, c Request) {
	a = Request{Client: ids.Client(7), Timestamp: 0x0102030405060708, Command: []byte("put k v")}
	b = Request{Client: ids.Client(0), Timestamp: 1, ReadOnly: true}
	// c's encoding is longer than the inline hashing bound.
	c = Request{Client: ids.Client(3), Timestamp: 42, Command: pattern(300)}
	return a, b, c
}

func wantHex(t *testing.T, name string, got []byte, want string) {
	t.Helper()
	if h := hex.EncodeToString(got); h != want {
		t.Errorf("%s = %s, want %s", name, h, want)
	}
}

func TestGoldenRequestEncoding(t *testing.T) {
	a, b, c := goldenRequests()
	wantHex(t, "a.Marshal", a.Marshal(), "001000070102030405060708000000000000000700707574206b2076")
	wantHex(t, "b.Marshal", b.Marshal(), "001000000000000000000001000000000000000001")
	for _, tc := range []struct {
		name string
		req  Request
		want string
	}{
		{"a", a, "f9376773f11665741029b970b16b6319db18161a5fae9607a6f7b11fc0d049da"},
		{"b", b, "f957ab44107b54ad8a8b8449cbe99d2aa7e63e3bbb55122c660036dc4ddb06ba"},
		{"c", c, "6a82fef6483c2a3a58377831a84e900bee6d31db74f1e1cfdc18533a49dc2f41"},
	} {
		d := tc.req.Digest()
		wantHex(t, tc.name+".Digest", d[:], tc.want)
		if d != authn.Hash(tc.req.Marshal()) {
			t.Errorf("%s: Digest is not the hash of Marshal", tc.name)
		}
		// The trace context never enters the agreement identity.
		traced := tc.req
		traced.Trace.TraceID = 99
		if traced.Digest() != d {
			t.Errorf("%s: trace context changed the digest", tc.name)
		}
	}
}

func TestGoldenBatchDigest(t *testing.T) {
	a, b, c := goldenRequests()
	d := BatchOf(a, b, c).Digest()
	wantHex(t, "batch3.Digest", d[:], "0d699c35b52fbf1b89e1b769cbbad4902a8224a84c3144d2c6c4e637dcd20abb")

	// Twenty requests: more than the fold's stack-held parts.
	var many []Request
	for i := 0; i < 20; i++ {
		many = append(many, Request{Client: ids.Client(i), Timestamp: uint64(100 + i), Command: pattern(i)})
	}
	batch := BatchOf(many...)
	d = batch.Digest()
	wantHex(t, "batch20.Digest", d[:], "4d7e7ab0f33b25d65a42578e1826e5272329767d40076fd7f385b29317758861")
	if DigestOf(batch.Digests()) != d {
		t.Error("DigestOf(Digests()) differs from Digest()")
	}
}

// TestRequestDigestAllocs pins the in-place digest: hashing a request whose
// encoding fits the inline bound allocates nothing.
func TestRequestDigestAllocs(t *testing.T) {
	a, _, _ := goldenRequests()
	var sink authn.Digest
	if n := testing.AllocsPerRun(200, func() { sink = a.Digest() }); n != 0 {
		t.Fatalf("Request.Digest allocates %v times per call, want 0", n)
	}
	_ = sink
}
