package host

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// hotHost is a directly driven single-replica host over the null
// application with its first checkpoint boundary out of reach, holding
// `logged` logged-and-executed entries of uncheckpointed history. The growing stores are pre-sized so a
// measurement sees per-request work, not amortized growth.
func hotHost(t *testing.T, logged int) (*Host, *InstanceState, *uint64) {
	t.Helper()
	net := transport.NewLocal(transport.Options{})
	t.Cleanup(net.Close)
	h := New(Config{
		Cluster:            ids.NewCluster(0),
		Replica:            ids.Replica(0),
		Keys:               authn.NewKeyStore("hot-path"),
		App:                app.NewNull(0),
		Endpoint:           net.Endpoint(ids.Replica(0)),
		NewProtocol:        func(*Host, *InstanceState) ProtocolReplica { return nopReplica{} },
		CheckpointInterval: 1 << 20,
	})
	st := h.Bootstrap()
	if st == nil {
		t.Fatal("bootstrap failed")
	}
	const room = 4096
	h.requestStore = make(map[authn.Digest]storedBody, room)
	st.Digests = make(history.DigestHistory, 0, room)
	st.chain = make([]authn.Digest, 0, room)
	h.appliedDigs = make(history.DigestHistory, 0, room)
	ts := new(uint64)
	for i := 0; i < logged; i++ {
		logExecuteOne(t, h, st, ts)
	}
	return h, st, ts
}

func logExecuteOne(t *testing.T, h *Host, st *InstanceState, ts *uint64) {
	*ts++
	req := msg.Request{Client: ids.Client(0), Timestamp: *ts, Command: []byte("cmd")}
	if _, ok := h.Log(st, req); !ok {
		t.Fatal("log rejected")
	}
	h.Execute(st, req)
}

// TestLogExecuteAllocIndependentOfHistory: logging and executing one request
// must cost the same whether 8 or 200 entries of uncheckpointed history sit
// below it (it used to copy the whole digest history per Execute), and stay
// within a pinned budget.
func TestLogExecuteAllocIndependentOfHistory(t *testing.T) {
	measure := func(logged int) (allocs float64, bytes uint64) {
		h, st, ts := hotHost(t, logged)
		allocs = testing.AllocsPerRun(32, func() { logExecuteOne(t, h, st, ts) })
		const rounds = 32
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			logExecuteOne(t, h, st, ts)
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	shortAllocs, shortBytes := measure(8)
	longAllocs, longBytes := measure(200)
	t.Logf("Log+Execute: %v allocs, %d B at 8 entries; %v allocs, %d B at 200 entries", shortAllocs, shortBytes, longAllocs, longBytes)
	if longAllocs != shortAllocs {
		t.Errorf("allocations grow with history: %v at 8 entries, %v at 200", shortAllocs, longAllocs)
	}
	if longBytes > shortBytes+64 {
		t.Errorf("allocated bytes grow with history: %d B at 8 entries, %d B at 200", shortBytes, longBytes)
	}
	// One request: its stored clone, the batch-of-one digests, the reply.
	if budget := 4.0; longAllocs > budget {
		t.Errorf("Log+Execute allocates %v times per request, budget %v", longAllocs, budget)
	}
}

// referenceTarget is the digest-sequence reconstruction digestAt replaced
// (Host.globalTarget): it materializes, as a suffix from the applied trim
// point, what digestAt answers one position at a time. Kept as the
// reference the lookup is checked against.
func referenceTarget(h *Host, st *InstanceState) (uint64, history.DigestHistory) {
	base := h.appliedTrim
	var target history.DigestHistory
	instStart := st.BaseSeq + st.Trimmed()
	if instStart > base {
		for p := base; p < instStart; p++ {
			if p-h.appliedTrim < uint64(len(h.appliedDigs)) {
				target = append(target, h.appliedDigs[p-h.appliedTrim])
			} else {
				target = append(target, authn.Digest{})
			}
		}
	}
	if instStart < base {
		skip := base - instStart
		if skip > uint64(len(st.Digests)) {
			skip = uint64(len(st.Digests))
		}
		target = append(target, st.Digests[skip:]...)
		return base, target
	}
	target = append(target, st.Digests...)
	return base, target
}

func TestDigestAtMatchesReferenceTarget(t *testing.T) {
	digs := func(tag byte, n int) history.DigestHistory {
		out := make(history.DigestHistory, n)
		for i := range out {
			out[i] = authn.Hash([]byte{tag, byte(i)})
		}
		return out
	}
	for _, tc := range []struct {
		name string
		// instance history: base checkpoint, GC-trimmed entries, materialized
		baseSeq, trimmed uint64
		inst             int
		// applied mirror: trim point, materialized entries
		appliedTrim uint64
		applied     int
	}{
		{name: "aligned", inst: 12, applied: 9},
		{name: "both trimmed to the same checkpoint", trimmed: 8, inst: 5, appliedTrim: 8, applied: 3},
		{name: "instance starts above the applied trim", baseSeq: 10, inst: 5, appliedTrim: 4, applied: 8},
		{name: "instance starts above everything applied (never-applied gap)", baseSeq: 20, inst: 4, appliedTrim: 4, applied: 3},
		{name: "instance starts below the applied trim", trimmed: 2, inst: 10, appliedTrim: 6, applied: 4},
		{name: "instance ends below the applied trim", inst: 5, appliedTrim: 9, applied: 2},
		{name: "after a rollback: applied trim back at the activation snapshot's, below the instance's GC trim", trimmed: 16, inst: 6, appliedTrim: 8, applied: 10},
		{name: "empty instance history", baseSeq: 7, appliedTrim: 3, applied: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &Host{appliedTrim: tc.appliedTrim, appliedDigs: digs('a', tc.applied)}
			h.appliedSeq = h.appliedTrim + uint64(tc.applied)
			st := &InstanceState{BaseSeq: tc.baseSeq, trimmed: tc.trimmed, Digests: digs('i', tc.inst)}
			base, target := referenceTarget(h, st)
			end := base + uint64(len(target))
			// The apply loops now run to the history's end; where the
			// reference target was empty they must not run at all.
			if len(target) > 0 && end != st.AbsLen() {
				t.Fatalf("reference target ends at %d, history at %d", end, st.AbsLen())
			}
			if len(target) == 0 && st.AbsLen() > h.appliedSeq {
				t.Fatalf("reference target is empty but the history (%d) extends beyond the applied position (%d)", st.AbsLen(), h.appliedSeq)
			}
			for p := base; p < end; p++ {
				if got, want := h.digestAt(st, p), target[p-base]; got != want {
					t.Errorf("position %d: digestAt = %v, reference = %v", p, got, want)
				}
			}
		})
	}
}

// TestReconcileAfterRollbackAcrossGC drives a rollback after garbage
// collection has moved past the point the diverging instance was activated
// at: the next instance's adopted history diverges inside the speculative
// tail above the trim point, the applied state goes back to the boundary
// retained there, and the applied mirror — and the application — must end up
// exactly on the adopted sequence.
func TestReconcileAfterRollbackAcrossGC(t *testing.T) {
	const interval = 8
	h, st := gcHost(t, interval, false)
	drive(t, h, st, 1, 20) // GC advances the trim point to 16
	if _, trimmed := h.CheckpointStatus(); trimmed != 16 {
		t.Fatalf("trimmed = %d, want 16 (test setup)", trimmed)
	}
	// The adopted history keeps 1..18 and replaces the tail with 101, 102.
	var want history.DigestHistory
	adopted := &InstanceState{ID: 2, Initialized: true, windows: map[ids.ProcessID]tsState{}}
	h.Locked(func() {
		for ts := uint64(1); ts <= 18; ts++ {
			want = append(want, kvReq(ts).Digest())
		}
		for _, r := range []msg.Request{kvReq(101), kvReq(102)} {
			h.keepBody(r.Digest(), r, 20)
			want = append(want, r.Digest())
		}
		// The new instance materializes from the stable checkpoint at 8 on.
		adopted.BaseSeq = 8
		adopted.Digests = want[8:].Clone()
		h.reconcileApplication(adopted)
	})
	seq, acc := h.AppliedState()
	if seq != uint64(len(want)) || acc != want.Digest() {
		t.Fatalf("applied %d entries with chain %v, want %d with %v", seq, acc, len(want), want.Digest())
	}
	kv := h.Application().(*app.KVStore)
	if got := kv.Get("k19"); got != "" {
		t.Errorf("rolled-back put k19 survived: %q", got)
	}
	if got := kv.Get("k101"); got != "v101" {
		t.Errorf("adopted put k101 = %q, want v101", got)
	}
}

// TestReplyRingEntriesOrder: pipelined timestamps reach the ring out of
// order; the snapshot form must list the top-width timestamps in increasing
// order with the reply each was last given, whatever the arrival order.
func TestReplyRingEntriesOrder(t *testing.T) {
	ring := newReplyRing(4)
	for _, ts := range []uint64{5, 3, 4, 9, 7, 1, 8, 7} {
		ring.add(ts, []byte{byte(ts)})
	}
	ts, replies := ring.capture()
	if want := []uint64{5, 7, 8, 9}; !slices.Equal(ts, want) {
		t.Fatalf("entries = %v, want %v", ts, want)
	}
	for i := range ts {
		if len(replies[i]) != 1 || replies[i][0] != byte(ts[i]) {
			t.Fatalf("reply for ts %d = %v", ts[i], replies[i])
		}
	}

	// Against a model: any arrival order of a window of timestamps leaves
	// the top-width set, sorted, and get agrees with it.
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		width := 1 + rng.Intn(8)
		ring := newReplyRing(width)
		var seen []uint64
		for i := 0; i < 40; i++ {
			ts := uint64(1 + i/2 + rng.Intn(6)) // drifts upward, reorders, repeats
			ring.add(ts, []byte{byte(ts)})
			// Model: the set of top-width timestamps ever kept. A timestamp
			// below a full ring's minimum is dropped for good.
			pos := sort.Search(len(seen), func(k int) bool { return seen[k] >= ts })
			if pos < len(seen) && seen[pos] == ts {
				continue
			}
			if len(seen) == width && pos == 0 {
				continue
			}
			seen = append(seen, 0)
			copy(seen[pos+1:], seen[pos:])
			seen[pos] = ts
			if len(seen) > width {
				seen = seen[1:]
			}
		}
		got, _ := ring.capture()
		if !slices.Equal(got, seen) {
			t.Fatalf("round %d (width %d): entries = %v, model = %v", round, width, got, seen)
		}
		for _, ts := range seen {
			if reply, ok := ring.get(ts); !ok || reply[0] != byte(ts) {
				t.Fatalf("round %d: get(%d) = %v, %v", round, ts, reply, ok)
			}
		}
		if _, ok := ring.get(seen[len(seen)-1] + 1); ok {
			t.Fatalf("round %d: get invented a reply above the maximum", round)
		}
	}
}

// TestFilterFreshItemsPairsItemsWithBatch: the loggable items and the batch
// returned beside them must be the same requests in the same order, also when
// some items are stale and one request appears twice.
func TestFilterFreshItemsPairsItemsWithBatch(t *testing.T) {
	st := &InstanceState{ID: 1, windows: map[ids.ProcessID]tsState{ids.Client(0): {high: 2}}}
	item := func(client int, ts uint64) BatchItem {
		r := req(client, ts)
		return BatchItem{Req: r, Digest: r.Digest()}
	}
	all := []BatchItem{item(0, 3), item(1, 1), item(1, 2)}
	fresh, batch, stale := FilterFreshItems(st, all)
	if len(fresh) != 3 || batch.Len() != 3 || len(stale) != 0 {
		t.Fatalf("all-fresh flush: %d fresh, batch of %d, %d stale", len(fresh), batch.Len(), len(stale))
	}

	mixed := []BatchItem{item(0, 2), item(0, 3), item(0, 3), item(1, 1)}
	fresh, batch, stale = FilterFreshItems(st, mixed)
	if len(fresh) != 2 || batch.Len() != 2 || len(stale) != 2 {
		t.Fatalf("mixed flush: %d fresh, batch of %d, %d stale; want 2, 2, 2", len(fresh), batch.Len(), len(stale))
	}
	for i := range fresh {
		if fresh[i].Req.ID() != batch.Requests[i].ID() || fresh[i].Digest != batch.Requests[i].Digest() {
			t.Fatalf("fresh[%d] = %v does not pair with batch request %v", i, fresh[i].Req.ID(), batch.Requests[i].ID())
		}
	}
}

// TestClientAdmissionAllocs: admitting one REQ (hashing the request, binding
// its authenticator to the client, and verifying this replica's MAC entry)
// allocates nothing, and neither does admitting a 16-request ORDER, one of
// its requests a null operation, through AdmitOrdered.
func TestClientAdmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled HMAC states")
	}
	h, st, _ := hotHost(t, 0)
	req := msg.Request{Client: ids.Client(0), Timestamp: 1, Command: []byte("cmd")}
	authBytes := core.ClientAuthBytes(st.ID, req.Digest())
	auth := h.keys.NewAuthenticator(req.Client, h.Cluster().Replicas(), authBytes[:])
	if n := testing.AllocsPerRun(200, func() {
		if !h.VerifyClientAuth(st, req.Client, req.Client, auth, req.Digest()) {
			t.Fatal("REQ not admitted")
		}
	}); n != 0 {
		t.Fatalf("admitting a REQ allocates %v times, want 0", n)
	}

	batch := make([]msg.Request, 16)
	auths := make([]authn.Authenticator, len(batch))
	digests := make([]authn.Digest, len(batch))
	for i := range batch {
		batch[i] = msg.Request{Client: ids.Client(i), Timestamp: 1, Command: []byte("cmd")}
		digests[i] = batch[i].Digest()
		b := core.ClientAuthBytes(st.ID, digests[i])
		auths[i] = h.keys.NewAuthenticator(batch[i].Client, h.Cluster().Replicas(), b[:])
	}
	batch[15] = msg.Request{Client: ids.NullOp, Timestamp: 1}
	digests[15] = batch[15].Digest()
	auths[15] = authn.Authenticator{Sender: ids.NullOp}
	if n := testing.AllocsPerRun(200, func() {
		if !h.AdmitOrdered(st, ids.Replica(0), batch, auths, digests) {
			t.Fatal("ORDER not admitted")
		}
	}); n != 0 {
		t.Fatalf("admitting a 16-request ORDER allocates %v times, want 0", n)
	}
}

// admittingReplica admits every REQ through the shared client request step
// and counts the admissions.
type admittingReplica struct {
	h        *Host
	st       *InstanceState
	admitted *atomic.Int64
}

func (r admittingReplica) Handle(from ids.ProcessID, m any) {
	if req, ok := m.(*core.RequestMessage); ok && r.h.VerifyClientAuth(r.st, from, req.Req.Client, req.Auth, req.Req.Digest()) {
		r.admitted.Add(1)
	}
}

// TestRunLoopREQAllocs pins the event loop itself: one REQ taken from the
// inbox by Host.run — the wait, the stop and tick checks, dispatch and the
// client request step — allocates nothing, so the wake-ups that replaced the
// loop's select cost no garbage either.
func TestRunLoopREQAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled HMAC states")
	}
	net := transport.NewLocal(transport.Options{})
	t.Cleanup(net.Close)
	var admitted atomic.Int64
	h := New(Config{
		Cluster:  ids.NewCluster(0),
		Replica:  ids.Replica(0),
		Keys:     authn.NewKeyStore("run-loop"),
		App:      app.NewNull(0),
		Endpoint: net.Endpoint(ids.Replica(0)),
		NewProtocol: func(h *Host, st *InstanceState) ProtocolReplica {
			return admittingReplica{h: h, st: st, admitted: &admitted}
		},
		TickInterval: time.Millisecond,
	})
	h.Start()
	t.Cleanup(h.Stop)
	req := msg.Request{Client: ids.Client(0), Timestamp: 1, Command: []byte("cmd")}
	authBytes := core.ClientAuthBytes(core.FirstInstance, req.Digest())
	m := &core.RequestMessage{Instance: core.FirstInstance, Req: req,
		Auth: h.keys.NewAuthenticator(req.Client, h.Cluster().Replicas(), authBytes[:])}
	client := net.Endpoint(req.Client)
	want := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		want++
		client.Send(h.ID(), m)
		for admitted.Load() < want {
			runtime.Gosched()
		}
	}); n != 0 {
		t.Fatalf("one REQ through the event loop allocates %v times, want 0", n)
	}
}
