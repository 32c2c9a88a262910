package host

import (
	"testing"

	"abstractbft/internal/authn"
)

// TestSeqBuffer checks the reorder buffer's rules: the cap counts requests,
// not spans; a span replaced at the same position gives back its share of
// the cap; spans the history overtook are dropped; and a stopped instance
// gets nothing out of it.
func TestSeqBuffer(t *testing.T) {
	st := &InstanceState{}
	var b SeqBuffer[string]

	// The cap counts requests: one span of the full cap fits, a one-request
	// span beside it does not.
	b.Add(10, maxBufferedRequests, "full")
	b.Add(20, 1, "over")
	if b.requests != maxBufferedRequests || len(b.spans) != 1 {
		t.Fatalf("after filling the cap: %d requests in %d spans, want %d in 1", b.requests, len(b.spans), maxBufferedRequests)
	}
	// Replacing the span at position 10 releases its requests.
	b.Add(10, 4, "small")
	b.Add(20, 1, "one")
	if b.requests != 5 || len(b.spans) != 2 {
		t.Fatalf("after replacing: %d requests in %d spans, want 5 in 2", b.requests, len(b.spans))
	}

	// Nothing is buffered at position 0.
	if m, ok := b.Next(st); ok {
		t.Fatalf("Next at position 0 = %q, want nothing", m)
	}
	// The history reaches 15: the span at 10 was overtaken and is dropped;
	// the span at 20 stays buffered.
	logPositions(st, 15)
	if m, ok := b.Next(st); ok {
		t.Fatalf("Next at position 15 = %q, want nothing", m)
	}
	if b.requests != 1 || len(b.spans) != 1 {
		t.Fatalf("after the overtake: %d requests in %d spans, want 1 in 1", b.requests, len(b.spans))
	}

	logPositions(st, 5)
	st.Stopped = true
	if m, ok := b.Next(st); ok {
		t.Fatalf("Next on a stopped instance = %q, want nothing", m)
	}
	st.Stopped = false
	if m, ok := b.Next(st); !ok || m != "one" {
		t.Fatalf("Next at position 20 = %q, %v, want the span buffered there", m, ok)
	}
	if b.requests != 0 || len(b.spans) != 0 {
		t.Fatalf("after draining: %d requests in %d spans, want 0 in 0", b.requests, len(b.spans))
	}
}

// logPositions advances st's history by n positions.
func logPositions(st *InstanceState, n int) {
	for i := 0; i < n; i++ {
		st.appendDigest(authn.Hash([]byte{byte(st.AbsLen())}))
	}
	st.sealHead()
}
