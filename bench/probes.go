package bench

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/history"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/shard"
	"abstractbft/internal/statesync"
	"abstractbft/internal/transport"
	"abstractbft/internal/transport/wirecodec"
	"abstractbft/internal/zlight"
)

// probeSize scales the fixed iteration counts of the layer probes.
type probeSize struct {
	// loop is the iteration count of a ~1 µs operation; costlier operations
	// divide it. reps is how many times each loop runs (the median is
	// reported).
	loop, reps int
}

var (
	fullProbes  = probeSize{loop: 20000, reps: 5}
	quickProbes = probeSize{loop: 400, reps: 1}
)

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink any

// timeOp runs fn n times, reps times over, and returns the median
// nanoseconds per call.
func timeOp(n, reps int, fn func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// RunProbes runs the isolated layer probes: each a fixed-count loop over
// inputs made from seed, timing only calls into a layer's exported
// functions. A probe that cannot run (e.g. no loopback socket) reports 0.
func RunProbes(seed int64, quick bool) map[string]float64 {
	size := fullProbes
	if quick {
		size = quickProbes
	}
	rng := rand.New(rand.NewSource(seed))
	out := map[string]float64{}
	probeWirecodec(out, rng, size)
	probeAuthn(out, rng, size)
	probeTransport(out, rng, size)
	probeHost(out, rng, size)
	probeApp(out, rng, size)
	probeShard(out, rng, size)
	return out
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// clientAuth is a well-formed (not verified) four-entry authenticator.
func clientAuth(rng *rand.Rand, client ids.ProcessID) authn.Authenticator {
	a := authn.Authenticator{Sender: client}
	for r := 0; r < 4; r++ {
		var m authn.MAC
		rng.Read(m[:])
		a.Entries = append(a.Entries, authn.AuthEntry{Receiver: ids.Replica(r), MAC: m})
	}
	return a
}

// orderEnvelope is the hot-path frame of the batched planes: a ZLight ORDER
// carrying 16 requests of 64 bytes with their client authenticators.
func orderEnvelope(rng *rand.Rand) transport.Envelope {
	order := &zlight.OrderMessage{Instance: 1, Seq: 1 << 33}
	for i := 0; i < 16; i++ {
		order.Batch.Requests = append(order.Batch.Requests, msg.Request{Client: ids.Client(i), Timestamp: uint64(1000 + i), Command: randomBytes(rng, 64)})
		order.Auths = append(order.Auths, clientAuth(rng, ids.Client(i)))
	}
	rng.Read(order.PrimaryMAC[:])
	return transport.Envelope{From: ids.Replica(0), To: ids.Replica(1), Payload: order}
}

// requestEnvelope is a client request of the given command size (4 kB is the
// paper's 4/0 request).
func requestEnvelope(rng *rand.Rand, size int) transport.Envelope {
	req := &zlight.RequestMessage{
		Instance: 1,
		Req:      msg.Request{Client: ids.Client(0), Timestamp: 7, Command: randomBytes(rng, size)},
		Auth:     clientAuth(rng, ids.Client(0)),
	}
	return transport.Envelope{From: ids.Client(0), To: ids.Replica(0), Payload: req}
}

func probeWirecodec(out map[string]float64, rng *rand.Rand, size probeSize) {
	codec := wirecodec.Binary()
	encode := func(env transport.Envelope, n int) float64 {
		enc := codec.NewEncoder(io.Discard)
		return timeOp(n, size.reps, func() {
			if enc.Encode(&env) != nil || enc.Flush() != nil {
				panic("bench: wirecodec probe: encode failed")
			}
		})
	}
	// decode times n decodes of a pre-encoded stream per repetition.
	decode := func(env transport.Envelope, n int, allocs *float64) float64 {
		per := make([]float64, size.reps)
		for r := range per {
			var buf bytes.Buffer
			enc := codec.NewEncoder(&buf)
			for i := 0; i < n; i++ {
				if enc.Encode(&env) != nil {
					panic("bench: wirecodec probe: encode failed")
				}
			}
			if enc.Flush() != nil {
				panic("bench: wirecodec probe: flush failed")
			}
			dec := codec.NewDecoder(&buf)
			var got transport.Envelope
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if dec.Decode(&got) != nil {
					panic("bench: wirecodec probe: decode failed")
				}
			}
			per[r] = float64(time.Since(t0)) / float64(n)
			runtime.ReadMemStats(&after)
			if allocs != nil {
				*allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
			}
			sink = got
		}
		return median(per)
	}

	order := orderEnvelope(rng)
	var one bytes.Buffer
	enc := codec.NewEncoder(&one)
	if enc.Encode(&order) == nil && enc.Flush() == nil {
		out["wirecodec.order16_bytes"] = float64(one.Len())
	}
	var allocs float64
	out["wirecodec.encode_order16_ns"] = encode(order, size.loop/4)
	out["wirecodec.decode_order16_ns"] = decode(order, size.loop/4, &allocs)
	out["wirecodec.decode_order16_allocs"] = allocs
	req4k := requestEnvelope(rng, 4096)
	out["wirecodec.encode_req4k_ns"] = encode(req4k, size.loop/2)
	out["wirecodec.decode_req4k_ns"] = decode(req4k, size.loop/2, nil)
}

func probeAuthn(out map[string]float64, rng *rand.Rand, size probeSize) {
	ks := authn.NewKeyStore("bench-probe")
	client := ids.Client(0)
	replicas := ids.NewCluster(1).Replicas()
	small, large := randomBytes(rng, 64), randomBytes(rng, 4096)
	out["authn.authenticator4_64b_ns"] = timeOp(size.loop/2, size.reps, func() { sink = ks.NewAuthenticator(client, replicas, small) })
	out["authn.authenticator4_4k_ns"] = timeOp(size.loop/4, size.reps, func() { sink = ks.NewAuthenticator(client, replicas, large) })
	a := ks.NewAuthenticator(client, replicas, small)
	out["authn.mac_verify_ns"] = timeOp(size.loop, size.reps, func() {
		if ks.Verify(a, replicas[1], small) != nil {
			panic("bench: authn probe: verify failed")
		}
	})
	out["authn.hash_4k_ns"] = timeOp(size.loop/4, size.reps, func() { sink = authn.Hash(large) })
}

// serve hands every envelope arriving at ep to handle on a goroutine of its
// own; the returned function stops it and waits for it to end.
func serve(ep transport.Endpoint, handle func(transport.Envelope)) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case env := <-ep.Inbox():
				handle(env)
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// echo answers every envelope with its own payload.
func echo(ep transport.Endpoint) (stop func()) {
	return serve(ep, func(env transport.Envelope) { ep.Send(env.From, env.Payload) })
}

// roundTrips times n Send→Inbox echoes of payload from ep to peer and returns
// the median in microseconds (0 when an echo is lost).
func roundTrips(ep transport.Endpoint, peer ids.ProcessID, payload any, n int) float64 {
	var s Samples
	for i := 0; i < n; i++ {
		t0 := time.Now()
		ep.Send(peer, payload)
		select {
		case <-ep.Inbox():
		case <-time.After(5 * time.Second):
			return 0
		}
		s.Add(time.Since(t0))
	}
	return float64(s.P50()) / float64(time.Microsecond)
}

func probeTransport(out map[string]float64, rng *rand.Rand, size probeSize) {
	payload := requestEnvelope(rng, 64).Payload
	r0, r1 := ids.Replica(0), ids.Replica(1)

	local := transport.NewLocal(transport.Options{})
	a, b := local.Endpoint(r0), local.Endpoint(r1)
	stopEcho := echo(b)
	out["transport.local_rtt_us_p50"] = roundTrips(a, r1, payload, size.loop/4)
	stopEcho()
	local.Close()

	out["transport.tcp_rtt_us_p50"], out["transport.tcp_stream_msgs_per_s"] = 0, 0
	keys := authn.NewKeyStore("bench-probe")
	codec := wirecodec.Binary()
	ta, err := transport.NewTCPCodec(r0, map[ids.ProcessID]string{r0: "127.0.0.1:0"}, keys, codec)
	if err != nil {
		return
	}
	defer ta.Close()
	tb, err := transport.NewTCPCodec(r1, map[ids.ProcessID]string{r0: ta.Addr(), r1: "127.0.0.1:0"}, keys, codec)
	if err != nil {
		return
	}
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if tb.Prime(ctx, []ids.ProcessID{r0}) != nil {
		return
	}
	stopEcho = echo(ta)
	out["transport.tcp_rtt_us_p50"] = roundTrips(tb, r0, payload, size.loop/8)
	stopEcho()

	// One-way stream: tb sends n messages, ta counts them. Send never blocks
	// and drops at a full queue, so the sender keeps at most streamWindow
	// messages ahead of the receiver.
	const streamWindow = 512
	var received atomic.Int64
	stopCount := serve(ta, func(transport.Envelope) { received.Add(1) })
	defer stopCount()
	n := int64(size.loop / 4)
	rates := make([]float64, 0, size.reps)
	for r := 0; r < size.reps; r++ {
		received.Store(0)
		t0 := time.Now()
		deadline := t0.Add(5 * time.Second)
		for sent := int64(0); received.Load() < n && time.Now().Before(deadline); {
			if sent < n && sent-received.Load() < streamWindow {
				tb.Send(r0, payload)
				sent++
			} else {
				runtime.Gosched()
			}
		}
		if received.Load() < n {
			return
		}
		rates = append(rates, float64(n)/time.Since(t0).Seconds())
	}
	out["transport.tcp_stream_msgs_per_s"] = median(rates)
}

type nopProtocol struct{}

func (nopProtocol) Handle(ids.ProcessID, any) {}

// directHost is a host driven directly (no network peers, no protocol), as
// the repository's history-GC benchmark drives it.
func directHost(application app.Application) (*host.Host, *host.InstanceState, func()) {
	local := transport.NewLocal(transport.Options{})
	h := host.New(host.Config{
		Cluster:     ids.NewCluster(0),
		Replica:     ids.Replica(0),
		Keys:        authn.NewKeyStore("bench-probe"),
		App:         application,
		Endpoint:    local.Endpoint(ids.Replica(0)),
		NewProtocol: func(*host.Host, *host.InstanceState) host.ProtocolReplica { return nopProtocol{} },
	})
	return h, h.Bootstrap(), local.Close
}

func probeHost(out map[string]float64, rng *rand.Rand, size probeSize) {
	h, st, closeNet := directHost(app.NewNull(0))
	defer closeNet()
	if st == nil {
		panic("bench: host probe: bootstrap failed")
	}

	// One Add to its flush callback on an idle batcher: the timer flush.
	flushed := make(chan time.Time, 1)
	batcher := h.NewBatcher(func([]host.BatchItem) { flushed <- time.Now() })
	idle := make([]float64, 0, 20)
	for i := 0; i < cap(idle) && (i < 3 || size.reps > 1); i++ {
		item := host.BatchItem{Req: msg.Request{Client: ids.Client(0), Timestamp: uint64(i + 1)}}
		t0 := time.Now()
		h.Locked(func() { batcher.Add(item) })
		idle = append(idle, ms((<-flushed).Sub(t0)))
	}
	out["host.batcher_idle_flush_ms"] = median(idle)

	// Log + execute of 16-request batches, directly driven.
	command := randomBytes(rng, 64)
	ts := uint64(0)
	batches := size.loop / 16
	out["host.logexec_batch16_ns_per_req"] = timeOp(batches, size.reps, func() {
		batch := msg.Batch{Requests: make([]msg.Request, 16)}
		for i := range batch.Requests {
			ts++
			batch.Requests[i] = msg.Request{Client: ids.Client(i), Timestamp: ts, Command: command}
		}
		h.Locked(func() {
			if _, ok := h.LogBatch(st, batch); !ok {
				panic("bench: host probe: log rejected")
			}
			sink = h.ExecuteBatch(st, batch)
		})
	}) / 16

	acc, next := authn.Hash(command), authn.Hash(randomBytes(rng, 32))
	out["history.digest_step_ns"] = timeOp(size.loop, size.reps, func() { acc = history.DigestStep(acc, next) })
	sink = acc
}

// kvAt1k returns a KV store holding kvKeys keys with benchmark-sized values.
func kvAt1k() *app.KVStore {
	kv := app.NewKVStore()
	for k := 0; k < kvKeys; k++ {
		kv.Execute(app.EncodeKVPut(kvKey(k), kvValue(k, 1)))
	}
	return kv
}

func probeApp(out map[string]float64, rng *rand.Rand, size probeSize) {
	kv := kvAt1k()
	puts := make([][]byte, 256)
	for i := range puts {
		k := rng.Intn(kvKeys)
		puts[i] = app.EncodeKVPut(kvKey(k), kvValue(k, 2))
	}
	i := 0
	out["app.kv_put_ns"] = timeOp(size.loop, size.reps, func() {
		sink = kv.Execute(puts[i%len(puts)])
		i++
	})
	out["app.kv_snapshot_1k_us"] = timeOp(size.loop/100, size.reps, func() { sink = kv.Snapshot() }) / 1000

	// A checkpoint snapshot over that state with 16 clients' windows and
	// reply rings, as the TCP workload's replicas build every 128 requests.
	state := kv.Snapshot()
	var windows []statesync.ClientWindow
	var rings []statesync.ClientRing
	for c := 0; c < 16; c++ {
		windows = append(windows, statesync.ClientWindow{Client: ids.Client(c), High: 1000, Mask: ^uint64(0)})
		ring := statesync.ClientRing{Client: ids.Client(c)}
		for ts := uint64(937); ts <= 1000; ts++ {
			ring.Timestamps = append(ring.Timestamps, ts)
			ring.Replies = append(ring.Replies, []byte("OK"))
		}
		rings = append(rings, ring)
	}
	digest := authn.Hash(state)
	out["statesync.snapshot_build_1k_us"] = timeOp(size.loop/100, size.reps, func() {
		sink = statesync.NewSnapshot(1024, digest, state, windows, rings)
	}) / 1000
}

func probeShard(out map[string]float64, rng *rand.Rand, size probeSize) {
	// Feed n requests per shard into a two-shard executor and wait until the
	// merged sequence covers them all.
	command := randomBytes(rng, 64)
	perShard := size.loop / 2
	perShard -= perShard % shard.DefaultEpoch
	per := make([]float64, size.reps)
	for r := range per {
		exec := shard.NewExecutor(shard.ExecutorConfig{Shards: 2, NewApp: func() app.Application { return app.NewNull(0) }})
		t0 := time.Now()
		for pos := 0; pos < perShard; pos++ {
			for s := 0; s < 2; s++ {
				exec.OnLogged(s, uint64(pos), msg.Request{Client: ids.Client(s), Timestamp: uint64(pos + 1), Command: command})
			}
		}
		deadline := t0.Add(10 * time.Second)
		for exec.MergedSeq() < uint64(2*perShard) && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		per[r] = float64(time.Since(t0)) / float64(2*perShard)
		exec.Stop()
	}
	out["shard.executor_merge_ns_per_req"] = median(per)
}
