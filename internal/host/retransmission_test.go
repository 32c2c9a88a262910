package host

import (
	"bytes"
	"strings"
	"testing"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
	"abstractbft/internal/transport"
)

// TestRetransmissionGate drives the shared client-request entry gate through
// its three verdicts: a fresh request passes; a request the instance window
// logged is a duplicate; and a request the window of a newer instance calls
// fresh but the host already applied is a duplicate too, counted in
// host_applied_duplicates_total and recorded as a flight event. Every
// duplicate comes with the cached reply.
func TestRetransmissionGate(t *testing.T) {
	net := transport.NewLocal(transport.Options{})
	t.Cleanup(net.Close)
	reg := obs.NewRegistry()
	flight := obs.NewFlight("r0", 16)
	h := New(Config{
		Cluster:  ids.NewCluster(0),
		Replica:  ids.Replica(0),
		Keys:     authn.NewKeyStore("gate-test"),
		App:      app.NewKVStore(),
		Endpoint: net.Endpoint(ids.Replica(0)),
		NewProtocol: func(h *Host, st *InstanceState) ProtocolReplica {
			return nopReplica{}
		},
		Metrics: reg,
		Flight:  flight,
	})
	st := h.Bootstrap()
	applied := kvReq(1)
	var want []byte
	h.Locked(func() {
		if _, ok := h.LogBatch(st, msg.BatchOf(applied)); !ok {
			t.Fatal("log rejected")
		}
		want = h.Execute(st, applied)
	})
	// A later instance whose init history does not reach back to the applied
	// request: its timestamp window has never seen the client.
	next := &InstanceState{ID: st.ID + 2, windows: map[ids.ProcessID]tsState{}}
	counter := reg.Counter("host_applied_duplicates_total")

	h.Locked(func() {
		if dup, _, _ := h.Retransmission(st, kvReq(2)); dup {
			t.Error("a never-logged request is a duplicate")
		}
		dup, reply, cached := h.Retransmission(st, applied)
		if !dup || !cached || !bytes.Equal(reply, want) {
			t.Errorf("logged request: dup=%v cached=%v reply=%q, want a duplicate with reply %q", dup, cached, reply, want)
		}
		if n := counter.Value(); n != 0 {
			t.Errorf("applied duplicates = %d after a window duplicate, want 0", n)
		}
		dup, reply, cached = h.Retransmission(next, applied)
		if !dup || !cached || !bytes.Equal(reply, want) {
			t.Errorf("applied request in a later instance: dup=%v cached=%v reply=%q, want a duplicate with reply %q", dup, cached, reply, want)
		}
		if dup, _, _ := h.Retransmission(next, kvReq(2)); dup {
			t.Error("a never-applied request is a duplicate in the later instance")
		}
	})
	if n := counter.Value(); n != 1 {
		t.Fatalf("applied duplicates = %d, want 1", n)
	}
	var events []string
	for _, ev := range flight.Snapshot() {
		if ev.Kind == "applied-duplicate" {
			events = append(events, ev.Detail)
		}
	}
	if len(events) != 1 {
		t.Fatalf("applied-duplicate flight events = %q, want one", events)
	}
	for _, part := range []string{"instance 3", "client c0", "ts 1", "cached reply: true"} {
		if !strings.Contains(events[0], part) {
			t.Errorf("flight event %q does not name %q", events[0], part)
		}
	}
}
