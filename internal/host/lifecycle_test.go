package host

import (
	"testing"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// countingReplica counts its instance's ticks.
type countingReplica struct {
	ticks map[core.InstanceID]int
	id    core.InstanceID
}

func (countingReplica) Handle(ids.ProcessID, any) {}
func (r countingReplica) ProtocolTick()           { r.ticks[r.id]++ }

// TestOneLiveInstanceAcrossSkippedInits drives a single-replica host through
// the inits of instances 2, 5 and 7 (skipping ids), with requests logged in
// each, and then delivers a late REQ and PANIC for instance 1 and for the
// skipped instance 3. Exactly one instance stays live, the active one; only
// its protocol replica is ticked; and the next stable checkpoint trims every
// superseded instance, whose frozen abort keeps its report.
func TestOneLiveInstanceAcrossSkippedInits(t *testing.T) {
	const interval = 4
	net := transport.NewLocal(transport.Options{})
	t.Cleanup(net.Close)
	cluster, self, client := ids.NewCluster(0), ids.Replica(0), ids.Client(0)
	ticks := map[core.InstanceID]int{}
	h := New(Config{
		Cluster:  cluster,
		Replica:  self,
		Keys:     authn.NewKeyStore("lifecycle-test"),
		App:      app.NewKVStore(),
		Endpoint: net.Endpoint(self),
		NewProtocol: func(_ *Host, st *InstanceState) ProtocolReplica {
			return countingReplica{ticks: ticks, id: st.ID}
		},
		CheckpointInterval: interval,
	})
	net.Endpoint(client) // the PANICs' ABORTs go there
	send := func(m any) { h.dispatch(transport.Envelope{From: client, To: self, Payload: m}) }
	instance := func(id core.InstanceID) (st *InstanceState) {
		h.Locked(func() { st = h.instances[id] })
		return st
	}
	// switchTo stops instance from with a PANIC and activates next from its
	// signed abort, re-signed to name next.
	frozen := map[core.InstanceID]int{}
	switchTo := func(from, next core.InstanceID) {
		t.Helper()
		var abort core.AbortMessage
		if st := instance(from); st != nil {
			send(&core.PanicMessage{Instance: from, Timestamp: 1})
			h.Locked(func() { abort = h.signedAbort(st).Abort })
			frozen[from] = len(abort.Report.Suffix)
		} else {
			abort = core.AbortMessage{Instance: from, Replica: self}
		}
		abort.Next = next
		signed := core.SignedAbort{Abort: abort, Sig: h.keys.Sign(self, abort.SignedBytes())}
		ih, err := core.BuildInitHistory(cluster, from, []core.SignedAbort{signed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		send(&core.InitMessage{Instance: next, Init: ih})
		if st := instance(next); st == nil || !st.Initialized || h.ActiveInstance() != next {
			t.Fatalf("instance %d not activated and initialized from its init", next)
		}
	}
	ts := uint64(0)
	logSome := func(id core.InstanceID, k int) {
		t.Helper()
		st := instance(id)
		for i := 0; i < k; i++ {
			ts++
			b := msg.BatchOf(kvReq(ts))
			h.Locked(func() {
				if _, ok := h.LogBatch(st, b); !ok {
					t.Fatalf("instance %d cannot log", id)
				}
				h.ExecuteBatch(st, b)
			})
		}
	}

	switchTo(core.FirstInstance, 2)
	logSome(2, 6)
	switchTo(2, 5)
	logSome(5, 7)
	switchTo(5, 7)
	if frozen[2] == 0 || frozen[5] == 0 {
		t.Fatalf("test setup: the aborts of instances 2 and 5 report no suffix (%v)", frozen)
	}

	// onlyLive fails the test unless the active instance is the one live
	// instance.
	onlyLive := func(after string) {
		t.Helper()
		var live []core.InstanceID
		h.Locked(func() {
			for id, st := range h.instances {
				if !st.Stopped {
					live = append(live, id)
				}
			}
		})
		if active := h.ActiveInstance(); len(live) != 1 || live[0] != active {
			t.Fatalf("after %s: live instances %v, want only the active %d", after, live, active)
		}
	}
	// Late messages for instance 1 and for the skipped instance 3.
	late := []core.InstanceID{core.FirstInstance, 3}
	for _, id := range late {
		send(&core.RequestMessage{Instance: id, Req: kvReq(1000 + uint64(id))})
	}
	onlyLive("late REQs")
	for i := 0; i < 3; i++ {
		h.tickProtocols()
	}
	for id, n := range ticks {
		if id != 7 && n > 0 {
			t.Errorf("superseded instance %d ticked %d times", id, n)
		}
	}
	if ticks[7] != 3 {
		t.Errorf("active instance 7 ticked %d times, want 3", ticks[7])
	}
	for _, id := range late {
		send(&core.PanicMessage{Instance: id, Timestamp: 1000 + uint64(id)})
	}
	onlyLive("late PANICs")
	if instance(3) != nil {
		t.Fatal("a late message activated the skipped instance 3")
	}

	// The next stable checkpoint of instance 7 releases the superseded ones.
	logSome(7, interval)
	for _, id := range []core.InstanceID{core.FirstInstance, 2, 5} {
		st := instance(id)
		h.Locked(func() {
			if n := len(st.Digests); n != 0 {
				t.Errorf("superseded instance %d still materializes %d digests", id, n)
			}
			if st.cachedAbort == nil {
				t.Errorf("superseded instance %d was trimmed without a frozen abort", id)
			} else if got := len(st.cachedAbort.Abort.Report.Suffix); got != frozen[id] {
				t.Errorf("instance %d's frozen abort reports %d digests, want %d", id, got, frozen[id])
			}
		})
	}
}
