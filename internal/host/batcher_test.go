package host

import (
	"runtime"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/clock"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
	"abstractbft/internal/transport"
)

// newBatcherHost builds a minimal host for batch-assembler tests; the host's
// event loop is not started, so tests drive the batcher directly under
// Locked (as protocol handlers do).
func newBatcherHost(t *testing.T, policy BatchPolicy) *Host {
	t.Helper()
	return newMeteredBatcherHost(t, policy, nil)
}

func newMeteredBatcherHost(t *testing.T, policy BatchPolicy, reg *obs.Registry) *Host {
	t.Helper()
	net := transport.NewLocal(transport.Options{})
	t.Cleanup(net.Close)
	cluster := ids.NewCluster(1)
	return New(Config{
		Cluster:  cluster,
		Replica:  ids.Replica(0),
		Keys:     authn.NewKeyStore("batcher-test"),
		App:      app.NewNull(0),
		Endpoint: net.Endpoint(ids.Replica(0)),
		NewProtocol: func(*Host, *InstanceState) ProtocolReplica {
			return nopReplica{}
		},
		Batch:   policy,
		Metrics: reg,
	})
}

func req(client int, ts uint64) msg.Request {
	return msg.Request{Client: ids.Client(client), Timestamp: ts, Command: []byte{byte(ts)}}
}

func TestBatcherSizeTriggeredFlush(t *testing.T) {
	h := newBatcherHost(t, BatchPolicy{MaxBatch: 3, MaxDelay: -1})
	var flushes [][]BatchItem
	b := h.NewBatcher(func(items []BatchItem) {
		flushes = append(flushes, append([]BatchItem(nil), items...))
	})
	h.Locked(func() {
		b.Add(BatchItem{Req: req(0, 1)})
		b.Add(BatchItem{Req: req(1, 1)})
		if len(flushes) != 0 {
			t.Fatalf("flushed before the size trigger: %d flushes", len(flushes))
		}
		if b.timer != nil {
			t.Fatal("MaxDelay < 0 armed a delay timer")
		}
		b.Add(BatchItem{Req: req(2, 1)})
	})
	if len(flushes) != 1 || len(flushes[0]) != 3 {
		t.Fatalf("want one flush of 3 requests, got %d flushes %v", len(flushes), flushes)
	}
}

func TestBatcherDelayTriggeredFlush(t *testing.T) {
	h := newBatcherHost(t, BatchPolicy{MaxBatch: 100, MaxDelay: 5 * time.Millisecond})
	flushed := make(chan int, 1)
	b := h.NewBatcher(func(items []BatchItem) { flushed <- len(items) })
	h.Locked(func() {
		b.Add(BatchItem{Req: req(0, 1)})
		b.Add(BatchItem{Req: req(1, 1)})
	})
	select {
	case n := <-flushed:
		if n != 2 {
			t.Fatalf("delay flush delivered %d requests, want 2", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delay trigger never flushed")
	}
	h.Locked(func() {
		if b.Pending() != 0 {
			t.Fatalf("%d requests still pending after delay flush", b.Pending())
		}
	})
}

func TestBatcherSingleRequestDegenerate(t *testing.T) {
	// MaxBatch=1 must flush every request inline (the wire-compatible
	// per-request path) without ever arming the delay timer.
	h := newBatcherHost(t, BatchPolicy{MaxBatch: 1, MaxDelay: time.Hour})
	var flushes [][]BatchItem
	b := h.NewBatcher(func(items []BatchItem) {
		flushes = append(flushes, append([]BatchItem(nil), items...))
	})
	h.Locked(func() {
		b.Add(BatchItem{Req: req(0, 1)})
		b.Add(BatchItem{Req: req(0, 2)})
		if b.timer != nil {
			t.Fatal("MaxBatch = 1 armed a delay timer")
		}
	})
	if len(flushes) != 2 {
		t.Fatalf("want 2 inline flushes, got %d", len(flushes))
	}
	for i, f := range flushes {
		if len(f) != 1 {
			t.Fatalf("flush %d has %d requests, want 1", i, len(f))
		}
	}
}

func TestBatcherDuplicateTimestampInOneBatch(t *testing.T) {
	h := newBatcherHost(t, BatchPolicy{MaxBatch: 3, MaxDelay: -1})
	var flushes [][]BatchItem
	b := h.NewBatcher(func(items []BatchItem) {
		flushes = append(flushes, append([]BatchItem(nil), items...))
	})
	h.Locked(func() {
		b.Add(BatchItem{Req: req(0, 7)})
		b.Add(BatchItem{Req: req(0, 7)}) // retransmission inside the window
		b.Add(BatchItem{Req: req(1, 7)})
		b.Add(BatchItem{Req: req(2, 7)})
	})
	if len(flushes) != 1 {
		t.Fatalf("want one flush, got %d", len(flushes))
	}
	got := flushes[0]
	if len(got) != 3 {
		t.Fatalf("duplicate timestamp not deduplicated: %d requests in batch", len(got))
	}
	seen := map[msg.RequestID]bool{}
	for _, it := range got {
		if seen[it.Req.ID()] {
			t.Fatalf("request %v ordered twice within one batch", it.Req.ID())
		}
		seen[it.Req.ID()] = true
	}
}

func TestFilterFreshBatchEnforcesAtMostOnce(t *testing.T) {
	st := &InstanceState{
		ID:      1,
		windows: map[ids.ProcessID]tsState{ids.Client(0): {high: 2}},
	}

	batch := msg.BatchOf(
		req(0, 2), // stale: already logged
		req(0, 3), // fresh
		req(0, 3), // duplicate within the batch (Byzantine repetition)
		req(1, 1), // fresh, other client
		req(0, 4), // fresh, increasing
	)
	fresh, stale := st.FilterFreshBatch(batch)
	wantFresh := []msg.RequestID{req(0, 3).ID(), req(1, 1).ID(), req(0, 4).ID()}
	if fresh.Len() != len(wantFresh) {
		t.Fatalf("fresh has %d requests, want %d (stale=%d)", fresh.Len(), len(wantFresh), len(stale))
	}
	for i, want := range wantFresh {
		if fresh.Requests[i].ID() != want {
			t.Fatalf("fresh[%d] = %v, want %v", i, fresh.Requests[i].ID(), want)
		}
	}
	if len(stale) != 2 {
		t.Fatalf("stale has %d requests, want 2 (already-logged + intra-batch duplicate)", len(stale))
	}
}

func TestBatcherFlushOrderedByClientAndTimestamp(t *testing.T) {
	h := newBatcherHost(t, BatchPolicy{MaxBatch: 4, MaxDelay: -1})
	var got []BatchItem
	b := h.NewBatcher(func(items []BatchItem) { got = append([]BatchItem(nil), items...) })
	h.Locked(func() {
		b.Add(BatchItem{Req: req(1, 2)})
		b.Add(BatchItem{Req: req(0, 9)})
		b.Add(BatchItem{Req: req(1, 1)})
		b.Add(BatchItem{Req: req(0, 3)})
	})
	want := []msg.RequestID{req(0, 3).ID(), req(0, 9).ID(), req(1, 1).ID(), req(1, 2).ID()}
	if len(got) != len(want) {
		t.Fatalf("flush has %d requests, want %d", len(got), len(want))
	}
	for i, it := range got {
		if it.Req.ID() != want[i] {
			t.Fatalf("position %d: got %v want %v", i, it.Req.ID(), want[i])
		}
	}
}

// A size flush stops the delay timer for good: the idle period after it sees
// no second flush callback and no goroutine taking (here: parking on) the
// host lock on behalf of the deadline nobody waits for any more.
func TestBatcherSizeFlushLeavesNoStaleFire(t *testing.T) {
	const delay = 2 * time.Millisecond
	h := newBatcherHost(t, BatchPolicy{MaxBatch: 2, MaxDelay: delay})
	flushes := 0
	b := h.NewBatcher(func([]BatchItem) { flushes++ })
	// The process clock starts its goroutine on first use: before the
	// baseline, whichever test runs first.
	clock.AfterFunc(time.Hour, func() {}).Stop()
	h.Locked(func() {
		goroutines := runtime.NumGoroutine()
		b.Add(BatchItem{Req: req(0, 1)})
		if b.timer == nil {
			t.Fatal("a partial batch armed no delay timer")
		}
		b.Add(BatchItem{Req: req(1, 1)})
		if flushes != 1 || b.timer != nil {
			t.Fatalf("after the size flush: %d flushes, timer still set: %v", flushes, b.timer != nil)
		}
		// The lock stays held past the deadline: a fire would have to queue
		// up behind it, where it can be counted.
		time.Sleep(3 * delay)
		if got := runtime.NumGoroutine(); got > goroutines {
			t.Errorf("goroutines %d -> %d while idle after a size flush: a stale fire is waiting for the host lock", goroutines, got)
		}
	})
	h.Locked(func() {
		if flushes != 1 {
			t.Errorf("%d flush callbacks, want 1", flushes)
		}
	})
}

// A fire that lost the race with a size flush (its callback was already
// waiting for the host lock when the flush ran) must not cut the next batch
// short: gen tells it that its buffer is gone.
func TestBatcherStaleFireDoesNotFlushNextBatch(t *testing.T) {
	const delay = 2 * time.Millisecond
	h := newBatcherHost(t, BatchPolicy{MaxBatch: 2, MaxDelay: delay})
	type flush struct {
		n  int
		at time.Time
	}
	flushed := make(chan flush, 2)
	b := h.NewBatcher(func(items []BatchItem) { flushed <- flush{len(items), time.Now()} })
	var secondAdd time.Time
	h.Locked(func() {
		b.Add(BatchItem{Req: req(0, 1)})
		time.Sleep(2 * delay) // the deadline passes; its callback parks on the host lock
		b.Add(BatchItem{Req: req(1, 1)})
		secondAdd = time.Now()
		b.Add(BatchItem{Req: req(0, 2)})
	})
	if first := <-flushed; first.n != 2 {
		t.Fatalf("size flush delivered %d requests, want 2", first.n)
	}
	select {
	case second := <-flushed:
		if second.n != 1 {
			t.Fatalf("second flush delivered %d requests, want 1", second.n)
		}
		if waited := second.at.Sub(secondAdd); waited < delay {
			t.Errorf("the next batch was cut after %v, before its own %v deadline: a stale fire flushed it", waited, delay)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the next batch's own deadline never flushed it")
	}
}

// host_batch_deadline_overshoot_seconds is recorded on timer flushes only,
// and needs no tracer to have the first-add time it is measured from.
func TestBatcherDeadlineOvershootMetric(t *testing.T) {
	reg := obs.NewRegistry()
	h := newMeteredBatcherHost(t, BatchPolicy{MaxBatch: 2, MaxDelay: time.Millisecond}, reg)
	flushed := make(chan struct{}, 1)
	b := h.NewBatcher(func([]BatchItem) { flushed <- struct{}{} })
	overshoot := func() obs.HistogramSnapshot {
		return reg.Snapshot().Histograms["host_batch_deadline_overshoot_seconds"]
	}

	h.Locked(func() {
		b.Add(BatchItem{Req: req(0, 1)})
		b.Add(BatchItem{Req: req(1, 1)})
	})
	<-flushed
	if got := overshoot(); got.Count != 0 {
		t.Fatalf("a size flush recorded %d deadline overshoots", got.Count)
	}

	h.Locked(func() { b.Add(BatchItem{Req: req(0, 2)}) })
	<-flushed
	got := overshoot()
	if got.Count != 1 {
		t.Fatalf("a timer flush recorded %d deadline overshoots, want 1", got.Count)
	}
	if got.Sum <= 0 || got.Sum > 0.5 {
		t.Errorf("recorded overshoot %v s: want a small positive delay past the deadline", got.Sum)
	}
}
