package msg

import (
	"bytes"
	"testing"
	"testing/quick"

	"abstractbft/internal/ids"
)

func TestRequestMarshalRoundTrip(t *testing.T) {
	r := Request{Client: ids.Client(3), Timestamp: 42, Command: []byte("hello"), ReadOnly: true}
	out, err := UnmarshalRequest(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(r) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, r)
	}
	if _, err := UnmarshalRequest([]byte("short")); err == nil {
		t.Fatalf("short input accepted")
	}
	bad := r.Marshal()
	bad = bad[:len(bad)-1]
	if _, err := UnmarshalRequest(bad); err == nil {
		t.Fatalf("truncated command accepted")
	}
}

func TestRequestMarshalQuick(t *testing.T) {
	f := func(client uint16, ts uint64, cmd []byte, ro bool) bool {
		r := Request{Client: ids.Client(int(client)), Timestamp: ts, Command: cmd, ReadOnly: ro}
		out, err := UnmarshalRequest(r.Marshal())
		if err != nil {
			return false
		}
		return out.Client == r.Client && out.Timestamp == r.Timestamp && out.ReadOnly == r.ReadOnly && bytes.Equal(out.Command, r.Command)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDigestDistinguishesRequests(t *testing.T) {
	a := Request{Client: ids.Client(0), Timestamp: 1, Command: []byte("x")}
	b := Request{Client: ids.Client(0), Timestamp: 2, Command: []byte("x")}
	c := Request{Client: ids.Client(1), Timestamp: 1, Command: []byte("x")}
	if a.Digest() == b.Digest() || a.Digest() == c.Digest() {
		t.Fatalf("distinct requests share a digest")
	}
	if a.ID() == b.ID() {
		t.Fatalf("distinct requests share an ID")
	}
	clone := a.Clone()
	clone.Command[0] = 'y'
	if a.Command[0] != 'x' {
		t.Fatalf("Clone shares the command buffer")
	}
}
