package shard

import (
	"fmt"
	"sync"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
)

// DefaultEpoch is the default number of per-shard positions merged per shard
// epoch round.
const DefaultEpoch = 8

// ExecutorConfig configures the asynchronous execution stage of one replica.
type ExecutorConfig struct {
	// Shards is the number of shards merged.
	Shards int
	// Epoch is E, the number of positions each shard contributes per merge
	// round; 0 selects DefaultEpoch. Smaller epochs reduce merge latency,
	// larger ones amortize the round bookkeeping.
	Epoch int
	// NewApp builds the merged application the global sequence is applied
	// to; nil skips application execution (the merged digest chain is still
	// maintained).
	NewApp func() app.Application
	// Metrics, when non-nil, receives the execution-stage series (merged
	// progress, per-shard throughput, null-op fills, lag/backlog gauges).
	Metrics *obs.Registry
	// Tracer, when non-nil, samples logged→merged latencies (the merge stage
	// of the request lifecycle).
	Tracer *obs.Tracer
}

// Executor is the asynchronous execution stage: it consumes the ordered
// spans of every shard off the ordering critical path (fed by the host
// observer on each sub-host, see Node) and merges them into one
// deterministic global sequence using shard epoch rounds. Round r emits
// positions [r*E, (r+1)*E) of shard 0, then shard 1, …, then shard S-1, so
// the merged sequence — and the merged application state and digest chain
// built from it — is a pure function of the per-shard ordered histories:
// every replica converges to the same global order with no cross-shard
// coordination.
//
// A round is emitted once every shard has ordered its E positions. An idle
// shard no longer stalls the merge indefinitely: LaggingShards exposes the
// demand signal, and the node asks the idle shard's leader to order
// Mencius-style null operations (ids.NullOp) that fill its epoch through the
// ordinary ordering path — deterministic on every replica because the
// null-ops are part of the shard's agreed history. Per-key replies never
// wait for the merge either way; they are served by the per-shard
// speculative execution.
type Executor struct {
	shards, epoch int

	// intake decouples the ordering hot path from the merge loop: observers
	// append under a lock held only for the append. The merge loop swaps it
	// with drained, the emptied storage of the batch before, so the two
	// alternate instead of growing a new slice per wake-up.
	mu      sync.Mutex
	intake  []loggedRequest
	drained []loggedRequest
	wake    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	// ctrl carries whole-executor control actions (merged-state restore)
	// into the merge loop, which owns the sequencer state.
	ctrl chan func()

	// merge-loop-owned per-shard sequencer state.
	pending []span                   // in-order spans awaiting their round
	popped  []uint64                 // positions already merged per shard
	ooo     []map[uint64]msg.Request // out-of-order buffer per shard
	round   []msg.Request            // scratch a merge round is gathered into

	// merged state, guarded by stateMu. inOrder mirrors each shard's next
	// in-order position (popped + pending) for the idle-shard demand probe.
	stateMu      sync.Mutex
	mergedSeq    uint64
	mergedDigest authn.Digest
	mergedApp    app.Application
	rounds       uint64
	inOrder      []uint64
	poppedView   []uint64
	oooView      []uint64

	// observability: met is always non-nil (no-op metrics without a
	// registry); tracer samples logged→merged latencies through a single
	// trace slot owned by the merge loop.
	met        *execMetrics
	tracer     *obs.Tracer
	traceSet   bool
	traceShard int
	tracePos   uint64
	traceT     time.Time
	traceCtx   obs.TraceContext
}

// span is one shard's in-order requests awaiting their round: a queue over
// one backing array, appended to at the back and consumed an epoch at a time
// from the front. The consumed prefix is reclaimed by sliding the rest down
// once it is at least as long as the rest, so a pop is O(1) amortized
// whatever the backlog and a steady state never re-grows the array.
type span struct {
	buf  []msg.Request
	head int
}

func (q *span) len() int { return len(q.buf) - q.head }

func (q *span) push(r msg.Request) { q.buf = append(q.buf, r) }

// truncate keeps the first n requests.
func (q *span) truncate(n int) {
	clear(q.buf[q.head+n:])
	q.buf = q.buf[:q.head+n]
}

// popInto moves the first k requests to the end of dst.
func (q *span) popInto(dst []msg.Request, k int) []msg.Request {
	dst = append(dst, q.buf[q.head:q.head+k]...)
	q.head += k
	if q.head >= q.len() {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	return dst
}

// loggedRequest is one intake entry: an ordered request at its per-shard
// position, or (reset) a history-reset marker telling the sequencer to drop
// buffered entries at positions >= pos. Resets travel the same stream as
// feeds so a reset is processed before the adopted entries re-fed after it.
type loggedRequest struct {
	shard int
	pos   uint64
	req   msg.Request
	reset bool
}

// NewExecutor creates and starts the execution stage.
func NewExecutor(cfg ExecutorConfig) *Executor {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = DefaultEpoch
	}
	e := &Executor{
		shards:     cfg.Shards,
		epoch:      cfg.Epoch,
		wake:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		ctrl:       make(chan func()),
		pending:    make([]span, cfg.Shards),
		popped:     make([]uint64, cfg.Shards),
		ooo:        make([]map[uint64]msg.Request, cfg.Shards),
		inOrder:    make([]uint64, cfg.Shards),
		poppedView: make([]uint64, cfg.Shards),
		oooView:    make([]uint64, cfg.Shards),
		tracer:     cfg.Tracer,
	}
	for s := range e.ooo {
		e.ooo[s] = make(map[uint64]msg.Request)
	}
	if cfg.NewApp != nil {
		e.mergedApp = cfg.NewApp()
	}
	e.met = newExecMetrics(cfg.Metrics, e)
	go e.run()
	return e
}

// Stop terminates the merge loop after draining any completed rounds.
func (e *Executor) Stop() {
	close(e.stop)
	<-e.done
}

// OnLogged feeds one ordered request at its absolute per-shard position. It
// is called from the host event loop (under the host lock) and only appends
// to the intake, keeping the ordering critical path free of execution work.
func (e *Executor) OnLogged(shard int, pos uint64, req msg.Request) {
	e.feed(loggedRequest{shard: shard, pos: pos, req: req})
}

// OnReset tells the shard's sequencer that the sub-host's history was
// replaced from position `from` on (an adopted init history at an instance
// switch): buffered speculative entries at or beyond it are dropped, so the
// adopted values re-fed right after take their place instead of losing the
// first-win race to a rolled-back tail. Only the un-merged buffered tail is
// replaced: a rolled-back entry the merge loop merged before the reset was
// drained stays in the mirror, which then diverges from every replica that
// merged the agreed value (TestExecutorResetBelowPopped fails this way when
// the merge loop wins the race, seen under -race on a loaded machine).
func (e *Executor) OnReset(shard int, from uint64) {
	e.feed(loggedRequest{shard: shard, pos: from, reset: true})
}

func (e *Executor) feed(lr loggedRequest) {
	if lr.shard < 0 || lr.shard >= e.shards {
		return
	}
	e.mu.Lock()
	e.intake = append(e.intake, lr)
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// MergedSeq returns the number of requests merged into the global sequence.
func (e *Executor) MergedSeq() uint64 {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.mergedSeq
}

// MergedDigest returns the digest chain over the merged global sequence; two
// replicas that merged the same rounds report equal digests.
func (e *Executor) MergedDigest() authn.Digest {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.mergedDigest
}

// Rounds returns the number of completed shard epoch rounds.
func (e *Executor) Rounds() uint64 {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.rounds
}

// MergedApp returns a snapshot of the merged application (nil when the
// executor was configured without one).
func (e *Executor) MergedApp() app.Application {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if e.mergedApp == nil {
		return nil
	}
	return e.mergedApp.Clone()
}

// MergedSnapshot returns the merged mirror's state at its current round
// boundary: the merged sequence length, its digest chain, and the serialized
// merged application (nil without one). Rounds commit atomically under
// stateMu, so the snapshot always sits on a round boundary — the alignment
// RestoreMerged requires.
func (e *Executor) MergedSnapshot() (seq uint64, digest authn.Digest, appState []byte) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	var state []byte
	if e.mergedApp != nil {
		state = e.mergedApp.Snapshot()
	}
	return e.mergedSeq, e.mergedDigest, state
}

// RestoreMerged initializes the merged mirror from a peer's MergedSnapshot:
// a recovering replica adopts the merged sequence, digest chain, and merged
// application at a round boundary (its per-shard sub-hosts then catch up via
// statesync and feed the suffix). The caller is responsible for the f+1
// digest-agreement check across peers; seq must be a round-boundary multiple
// of shards*epoch and at or beyond the current merged sequence. The restore
// runs inside the merge loop, so it is also safe while feeds are live: the
// re-agreement retry uses it to move a stalled recovery to a newer boundary
// (buffered un-merged entries are dropped and entries below the new boundary
// are ignored — the re-pinned state transfers refill everything below it).
func (e *Executor) RestoreMerged(seq uint64, digest authn.Digest, appState []byte) error {
	errc := make(chan error, 1)
	fn := func() {
		errc <- e.applyRestore(seq, digest, appState)
	}
	select {
	case e.ctrl <- fn:
	case <-e.done:
		return fmt.Errorf("shard: executor stopped")
	}
	select {
	case err := <-errc:
		return err
	case <-e.done:
		return fmt.Errorf("shard: executor stopped")
	}
}

// applyRestore runs in the merge loop, which owns the sequencer state.
func (e *Executor) applyRestore(seq uint64, digest authn.Digest, appState []byte) error {
	round := uint64(e.shards) * uint64(e.epoch)
	if seq%round != 0 {
		return fmt.Errorf("shard: restore seq %d not on a round boundary (%d)", seq, round)
	}
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if seq < e.mergedSeq {
		return fmt.Errorf("shard: restore seq %d behind merged %d", seq, e.mergedSeq)
	}
	if e.mergedApp != nil && len(appState) > 0 {
		if err := e.mergedApp.Restore(appState); err != nil {
			return err
		}
	}
	perShard := seq / uint64(e.shards)
	for s := 0; s < e.shards; s++ {
		e.pending[s].truncate(0)
		e.ooo[s] = make(map[uint64]msg.Request)
		e.popped[s] = perShard
		e.inOrder[s] = perShard
		e.poppedView[s] = perShard
		e.oooView[s] = 0
	}
	e.traceSet = false
	e.mergedSeq = seq
	e.mergedDigest = digest
	e.rounds = seq / round
	return nil
}

// LaggingShards returns the shards whose in-order position is behind the
// next merge round's requirement while at least one shard has un-merged
// progress: the demand signal for Mencius-style null-ops. A single ordered
// request anywhere is demand — the whole round fills (the busy shard's
// remaining epoch positions included) so the request reaches the merged
// mirror promptly instead of waiting for a full epoch of real traffic. An
// all-idle plane reports nothing and once the round merges the signal goes
// quiet, so null-ops never chain on their own.
func (e *Executor) LaggingShards() []int {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	merged := e.rounds * uint64(e.epoch)
	progressed := false
	for s := 0; s < e.shards; s++ {
		if e.inOrder[s] > merged {
			progressed = true
			break
		}
	}
	if !progressed {
		return nil
	}
	target := merged + uint64(e.epoch)
	var out []int
	for s := 0; s < e.shards; s++ {
		if e.inOrder[s] < target {
			out = append(out, s)
		}
	}
	return out
}

func (e *Executor) run() {
	defer close(e.done)
	for {
		select {
		case <-e.wake:
			e.drainIntake()
			e.mergeRounds()
			e.publishProgress()
		case fn := <-e.ctrl:
			fn()
		case <-e.stop:
			e.drainIntake()
			e.mergeRounds()
			e.publishProgress()
			return
		}
	}
}

// publishProgress mirrors each shard's next in-order position into the
// stateMu-guarded view the idle-shard demand probe reads.
func (e *Executor) publishProgress() {
	e.stateMu.Lock()
	for s := 0; s < e.shards; s++ {
		e.inOrder[s] = e.popped[s] + uint64(e.pending[s].len())
		e.poppedView[s] = e.popped[s]
		e.oooView[s] = uint64(len(e.ooo[s]))
	}
	e.stateMu.Unlock()
}

// MergedFloor returns the per-shard position the merged mirror has consumed
// up to: the garbage-collection retention floor of shard s's sub-host. A
// replica must keep snapshots and bodies back to this point, or a peer
// recovering its mirror at the same boundary could never refill the gap.
func (e *Executor) MergedFloor(s int) uint64 {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if s < 0 || s >= e.shards {
		return 0
	}
	return e.poppedView[s]
}

// drainIntake moves fed requests into the per-shard sequencers, restoring
// per-shard position order: a request logged at the next expected position
// extends the in-order span (and unblocks buffered successors); positions
// already consumed or already buffered are ignored (duplicate deliveries, or
// a post-switch re-log of a speculative tail — the merge keeps the first
// value it saw; re-syncing the mirror after an instance switch is a recorded
// follow-on).
func (e *Executor) drainIntake() {
	e.mu.Lock()
	batch := e.intake
	e.intake = e.drained[:0]
	e.mu.Unlock()
	for _, lr := range batch {
		s := lr.shard
		if lr.reset {
			// Drop buffered (un-merged) entries at or beyond the reset point;
			// the adopted values re-fed after this marker replace them.
			if lr.pos > e.popped[s] {
				if keep := lr.pos - e.popped[s]; keep < uint64(e.pending[s].len()) {
					e.pending[s].truncate(int(keep))
				}
			} else {
				e.pending[s].truncate(0)
			}
			for pos := range e.ooo[s] {
				if pos >= lr.pos {
					delete(e.ooo[s], pos)
				}
			}
			continue
		}
		next := e.popped[s] + uint64(e.pending[s].len())
		switch {
		case lr.pos < next:
			continue
		case lr.pos > next:
			if _, ok := e.ooo[s][lr.pos]; !ok && len(e.ooo[s]) < 4096 {
				e.ooo[s][lr.pos] = lr.req
			}
			continue
		}
		if e.tracer != nil && !e.traceSet && lr.req.Trace.Sampled() {
			// Trace this entry through to its merge (single slot: at most one
			// sampled entry in flight keeps the loop allocation-free). The
			// sampling decision is the client's, carried on the request.
			e.traceSet, e.traceShard, e.tracePos, e.traceT = true, s, lr.pos, time.Now()
			e.traceCtx = lr.req.Trace
		}
		e.pending[s].push(lr.req)
		for {
			next = e.popped[s] + uint64(e.pending[s].len())
			req, ok := e.ooo[s][next]
			if !ok {
				break
			}
			delete(e.ooo[s], next)
			e.pending[s].push(req)
		}
	}
	clear(batch)
	e.drained = batch
}

// mergeRounds emits every complete shard epoch round: E requests of each
// shard in shard order, executed against the merged application and folded
// into the merged digest chain.
func (e *Executor) mergeRounds() {
	for {
		ready := true
		for s := 0; s < e.shards; s++ {
			if e.pending[s].len() < e.epoch {
				ready = false
				break
			}
		}
		if !ready {
			return
		}
		round := e.round[:0]
		for s := 0; s < e.shards; s++ {
			round = e.pending[s].popInto(round, e.epoch)
			e.popped[s] += uint64(e.epoch)
			if e.met.merged != nil {
				e.met.merged[s].Add(uint64(e.epoch))
			}
		}
		if e.traceSet && e.tracePos < e.popped[e.traceShard] {
			e.tracer.Record(e.traceCtx, obs.StageMerge, e.traceShard, e.traceT, time.Since(e.traceT))
			e.traceSet = false
			e.traceCtx = obs.TraceContext{}
		}
		// Execute and fold outside any lock contended by the ordering path;
		// stateMu only serializes against snapshot readers.
		e.stateMu.Lock()
		for _, req := range round {
			d := req.Digest()
			e.mergedDigest = authn.HashAll(e.mergedDigest[:], d[:])
			// Null operations advance the sequence and the digest chain but
			// execute nothing (they exist only to fill idle shards' epochs).
			if e.mergedApp != nil && req.Client != ids.NullOp {
				e.mergedApp.Execute(req.Command)
			}
			if req.Client == ids.NullOp {
				e.met.nullOps.Inc()
			}
			e.mergedSeq++
		}
		e.rounds++
		e.met.mergedSeq.Set(int64(e.mergedSeq))
		e.met.rounds.Inc()
		e.stateMu.Unlock()
		clear(round)
		e.round = round
	}
}
