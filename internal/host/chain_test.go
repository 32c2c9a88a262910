package host

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// referenceFold is the history chain the long way: a fresh left fold of
// DigestStep over the given entries from the given start value. The stored
// chain is checked against it.
func referenceFold(from authn.Digest, entries history.DigestHistory) authn.Digest {
	for _, d := range entries {
		from = history.DigestStep(from, d)
	}
	return from
}

// TestHistoryChainMatchesReferenceFold drives random append / TrimTo /
// PrefixDigest / HistoryDigest sequences against the naive re-fold: with and
// without a base checkpoint, starting from nothing, from an adopted init
// suffix, and from a state transfer (a trimmed prefix known only by its
// fold), with prefix queries below the trim point and moving backward.
func TestHistoryChainMatchesReferenceFold(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	digest := func() authn.Digest {
		var d authn.Digest
		rng.Read(d[:])
		return d
	}
	for round := 0; round < 30; round++ {
		st := &InstanceState{ID: 1, windows: map[ids.ProcessID]tsState{}}
		if round%2 == 1 {
			st.BaseSeq, st.BaseDigest = uint64(1+rng.Intn(500)), digest()
		}
		// model: every entry after BaseSeq that is still known by value, the
		// number before them known only by their fold, and that fold.
		var known history.DigestHistory
		var foldedLen uint64
		var folded authn.Digest
		switch round % 3 {
		case 0:
			st.sealHead() // empty history (what activate leaves behind for a zero BaseSeq)
		case 1:
			for i := rng.Intn(20); i > 0; i-- {
				known = append(known, digest())
			}
			st.resetHistory(0, authn.Digest{}, known)
		case 2:
			foldedLen, folded = uint64(1+rng.Intn(300)), digest()
			for i := rng.Intn(20); i > 0; i-- {
				known = append(known, digest())
			}
			st.resetHistory(foldedLen, folded, known)
		}

		check := func(step int) {
			t.Helper()
			rel := foldedLen + uint64(len(known))
			if got := st.AbsLen(); got != st.BaseSeq+rel {
				t.Fatalf("round %d step %d: AbsLen = %d, want %d", round, step, got, st.BaseSeq+rel)
			}
			if len(st.chain) != len(st.Digests) || uint64(len(st.Digests)) != rel-st.trimmed {
				t.Fatalf("round %d step %d: %d chain values, %d digests, %d trimmed of %d", round, step, len(st.chain), len(st.Digests), st.trimmed, rel)
			}
			want := referenceFold(folded, known)
			if st.BaseSeq != 0 {
				want = authn.HashAll(st.BaseDigest[:], want[:])
			}
			if got := st.HistoryDigest(); got != want {
				t.Fatalf("round %d step %d: HistoryDigest = %v, want %v", round, step, got, want)
			}
			// Prefix queries around every edge — below the trim point, at it,
			// inside, at the end and beyond — and at random, asked forward
			// and then backward.
			idxs := []uint64{0, st.trimmed, st.trimmed + 1, rel, rel + 2}
			if st.trimmed > 0 {
				idxs = append(idxs, st.trimmed-1)
			}
			for i := 0; i < 6; i++ {
				idxs = append(idxs, uint64(rng.Intn(int(rel)+3)))
			}
			slices.Sort(idxs)
			back := slices.Clone(idxs)
			slices.Reverse(back)
			idxs = append(idxs, back...)
			for _, idx := range idxs {
				// A prefix that ends inside the trimmed region reports the
				// trim fold; one beyond the history, the whole history.
				eff := min(max(idx, st.trimmed), rel)
				want := referenceFold(folded, known[:eff-foldedLen])
				if got := st.PrefixDigest(idx); got != want {
					t.Fatalf("round %d step %d: PrefixDigest(%d) = %v, want %v (trimmed %d, len %d)", round, step, idx, got, want, st.trimmed, rel)
				}
			}
		}

		check(-1)
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // an append span, sealed once like LogBatchDigested
				for i := 1 + rng.Intn(8); i > 0; i-- {
					d := digest()
					known = append(known, d)
					st.appendDigest(d)
				}
				st.sealHead()
			default: // trim: below the base, inside the trimmed region, inside the history, beyond it
				seq := uint64(rng.Intn(int(st.AbsLen()) + 5))
				before := st.BaseSeq + st.trimmed
				dropped := st.TrimTo(seq)
				after := min(max(seq, before), st.AbsLen())
				if st.BaseSeq+st.trimmed != after {
					t.Fatalf("round %d step %d: TrimTo(%d) left the trim point at %d, want %d", round, step, seq, st.BaseSeq+st.trimmed, after)
				}
				// The dropped count is exactly the positions given up.
				if uint64(dropped) != after-before {
					t.Fatalf("round %d step %d: TrimTo(%d) dropped %d digests, want positions %d..%d", round, step, seq, dropped, before, after)
				}
			}
			check(step)
		}
	}
}

// snapshotHost is gcHost over the null application with the default window.
func snapshotHost(t *testing.T, interval int) (*Host, *InstanceState) {
	return snapshotHostWith(t, app.NewNull(8), interval)
}

func snapshotHostWith(t *testing.T, application app.Application, interval int) (*Host, *InstanceState) {
	t.Helper()
	net := transport.NewLocal(transport.Options{})
	t.Cleanup(net.Close)
	h := New(Config{
		Cluster:            ids.NewCluster(0),
		Replica:            ids.Replica(0),
		Keys:               authn.NewKeyStore("snapshot-test"),
		App:                application,
		Endpoint:           net.Endpoint(ids.Replica(0)),
		NewProtocol:        func(*Host, *InstanceState) ProtocolReplica { return nopReplica{} },
		CheckpointInterval: interval,
	})
	st := h.Bootstrap()
	if st == nil {
		t.Fatal("bootstrap failed")
	}
	return h, st
}

// TestSnapshotIdentityIndependentOfArrivalOrder: two hosts that log and
// execute the same batches must agree on (Seq, HistDigest, AppDigest) at every
// boundary, although their per-client maps were populated in opposite orders
// (and Go iterates them in random order anyway), so the captured windows and
// rings reach the lazily computed digest in different orders; and although
// pipelined clients' timestamps reach the rings out of order.
func TestSnapshotIdentityIndependentOfArrivalOrder(t *testing.T) {
	const interval, clients, batches = 16, 6, 40
	a, stA := snapshotHost(t, interval)
	b, stB := snapshotHost(t, interval)
	// b meets the clients in reverse before any request arrives.
	b.Locked(func() {
		for c := clients - 1; c >= 0; c-- {
			b.appliedWindows[ids.Client(c)] = tsState{}
			b.replyRingFor(ids.Client(c))
		}
	})
	rng := rand.New(rand.NewSource(7))
	next := make([]uint64, clients)
	for n := 0; n < batches; n++ {
		var batch msg.Batch
		for c := 0; c < clients; c++ {
			// Two requests per client and batch, the later timestamp first
			// every other time: a pipelined client overtaking itself.
			lo, hi := next[c]+1, next[c]+2
			next[c] += 2
			if rng.Intn(2) == 0 {
				lo, hi = hi, lo
			}
			for _, ts := range []uint64{lo, hi} {
				batch.Requests = append(batch.Requests, msg.Request{Client: ids.Client(c), Timestamp: ts, Command: []byte{byte(c), byte(ts)}})
			}
		}
		for _, hs := range []struct {
			h  *Host
			st *InstanceState
		}{{a, stA}, {b, stB}} {
			hs.h.Locked(func() {
				if _, ok := hs.h.LogBatch(hs.st, batch); !ok {
					t.Fatal("log rejected")
				}
				hs.h.ExecuteBatch(hs.st, batch)
			})
		}
		seq, _ := a.AppliedState()
		boundary := seq - seq%interval
		snA, okA := a.snaps.At(boundary)
		snB, okB := b.snaps.At(boundary)
		if okA != okB {
			t.Fatalf("batch %d: snapshot at %d retained on one host only", n, boundary)
		}
		if !okA || boundary == 0 {
			// Seq 0 is the application as it came: no windows, no rings.
			continue
		}
		if snA.Seq != snB.Seq || snA.HistDigest != snB.HistDigest || snA.AppDigest != snB.AppDigest {
			t.Fatalf("batch %d: hosts disagree at boundary %d: (%d %v %v) vs (%d %v %v)", n, boundary,
				snA.Seq, snA.HistDigest, snA.AppDigest, snB.Seq, snB.HistDigest, snB.AppDigest)
		}
		if snA.AppDigest.IsZero() || snA.AppDigest != snA.PayloadDigest() {
			t.Fatalf("batch %d: store handed out a snapshot whose AppDigest is not its payload digest", n)
		}
		if len(snA.Windows) != clients || len(snA.Rings) != clients {
			t.Fatalf("batch %d: snapshot carries %d windows and %d rings, want %d each", n, len(snA.Windows), len(snA.Rings), clients)
		}
	}
}

// TestCapturedRingViewsStayIntact: a checkpoint snapshot aliases the reply
// rings' storage instead of copying it, so whatever the ring does afterwards
// — appends, evictions, out-of-order inserts, overwrites by re-execution —
// must leave every captured view as it was when captured.
func TestCapturedRingViewsStayIntact(t *testing.T) {
	type view struct {
		ts, wantTS       []uint64
		replies, wantRep [][]byte
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 100; round++ {
		ring := newReplyRing(1 + rng.Intn(8))
		var views []view
		for i := 0; i < 120; i++ {
			ts := uint64(1 + i/2 + rng.Intn(6)) // drifts upward, reorders, repeats
			ring.add(ts, []byte{byte(ts), byte(i)})
			if rng.Intn(6) == 0 {
				tss, reps := ring.capture()
				views = append(views, view{tss, slices.Clone(tss), reps, slices.Clone(reps)})
			}
		}
		for k, v := range views {
			if !slices.Equal(v.ts, v.wantTS) {
				t.Fatalf("round %d: captured view %d changed its timestamps to %v, was %v", round, k, v.ts, v.wantTS)
			}
			for j := range v.replies {
				if &v.replies[j][0] != &v.wantRep[j][0] {
					t.Fatalf("round %d: captured view %d entry %d (ts %d) now holds another reply", round, k, j, v.ts[j])
				}
			}
		}
	}
}

// TestSnapshotBoundaryAllocBudget pins what crossing a checkpoint boundary
// costs the request path: Log+Execute of the 16-request batch that crosses it,
// with 24 clients whose reply rings are full. Capture records views — of the
// rings and of the application — and leaves serializing and digesting to
// whoever asks for the snapshot, so the batch allocates little more than any
// other, whatever the application holds: the 1024-key store has the null
// application's budget. PR 13 copied every ring twice and encoded and hashed
// the lot: 100,728 B for this batch with the null application; the budget is
// an eighth of that.
func TestSnapshotBoundaryAllocBudget(t *testing.T) {
	puts := make([][]byte, 1024)
	for k := range puts {
		puts[k] = app.EncodeKVPut(fmt.Sprintf("key-%04d", k), fmt.Sprintf("%048d", k))
	}
	for _, tc := range []struct {
		name    string
		app     app.Application
		command func(turn int) []byte
	}{
		{"null", app.NewNull(8), func(int) []byte { return []byte("command") }},
		{"kv1024", app.NewKVStore(), func(turn int) []byte { return puts[turn%len(puts)] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			boundaryAllocBudget(t, tc.app, tc.command)
		})
	}
}

func boundaryAllocBudget(t *testing.T, application app.Application, command func(turn int) []byte) {
	const clients, perBatch, boundaries = 24, 16, 8
	const perInterval = history.DefaultCheckpointInterval / perBatch
	h, st := snapshotHostWith(t, application, history.DefaultCheckpointInterval)
	// The request store is a map that bodies enter as they are logged and
	// leave as checkpoints stabilize; left to grow on demand, one of its
	// tables now and then splits inside a measured batch and bills it some
	// hundred kilobytes. Sized for every body the test ever logs, it never
	// grows.
	h.requestStore = make(map[authn.Digest]storedBody, 2*(13+boundaries)*history.DefaultCheckpointInterval)
	ts := make([]uint64, clients)
	turn := 0
	logExecute := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var batch msg.Batch
		for i := 0; i < perBatch; i++ {
			c := turn % clients
			ts[c]++
			batch.Requests = append(batch.Requests, msg.Request{Client: ids.Client(c), Timestamp: ts[c], Command: command(turn)})
			turn++
		}
		h.Locked(func() {
			if _, ok := h.LogBatch(st, batch); !ok {
				t.Fatal("log rejected")
			}
			h.ExecuteBatch(st, batch)
		})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// Fill every ring (24 clients x 64 timestamps), write every key, and stop
	// one batch short of a boundary.
	for n := 0; n < 13*perInterval-1; n++ {
		logExecute()
	}
	var total, others uint64
	for k := 0; k < boundaries; k++ {
		total += logExecute()
		if seq, _ := h.AppliedState(); seq%history.DefaultCheckpointInterval != 0 {
			t.Fatalf("measured batch ended at %d, not on a boundary (test setup)", seq)
		}
		for n := 0; n < perInterval-1; n++ {
			others += logExecute()
		}
	}
	perBoundary := total / boundaries
	t.Logf("boundary batch allocates %d B, the batches between %d B", perBoundary, others/(boundaries*(perInterval-1)))
	if budget := uint64(12 << 10); perBoundary > budget {
		t.Fatalf("the batch crossing a checkpoint boundary allocates %d B, budget %d B", perBoundary, budget)
	}
	if _, _, _, snaps := h.GCStats(); snaps == 0 {
		t.Fatal("no snapshot retained: the boundary was never captured")
	}
}
