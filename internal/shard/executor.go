package shard

import (
	"fmt"
	"slices"
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
	// Deprecated: the executor sequences request digests and runs no
	// application; NewApp is ignored.
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
// deterministic global sequence of request digests using shard epoch rounds.
// Round r emits positions [r*E, (r+1)*E) of shard 0, then shard 1, …, then
// shard S-1, so the merged sequence and its digest chain are a pure function
// of the per-shard ordered histories: every replica converges to the same
// global order with no cross-shard coordination. Clients are answered from
// the per-shard partitions, so the merge executes nothing.
//
// A speculative shard can roll back a tail the mirror already merged (an
// instance switch adopting an init history that replaces it). The executor
// therefore keeps each shard's digests from the floor on — the round holding
// the lowest stable checkpoint over the shards, below which every replica
// logged the same history — with the chain value at the start of every
// merged round since, and a reset below the merged prefix rewinds to the
// round holding the reset position and merges again from the re-fed history.
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

	// merge-loop-owned sequencer state. digs[s] holds shard s's in-order
	// digests from position base*E on: the first (rounds-base)*E are merged,
	// the rest await their round. starts[i] is the chain value at the start
	// of round base+i.
	digs   [][]entry
	ooo    []map[uint64]entry // out-of-order buffer per shard
	stable []uint64           // highest stable checkpoint reported per shard
	starts []authn.Digest
	base   uint64

	// merged state, guarded by stateMu; the merge loop, its one writer, reads
	// rounds without it. inOrder mirrors each shard's next in-order position
	// for the idle-shard demand probe.
	stateMu      sync.Mutex
	mergedSeq    uint64
	mergedDigest authn.Digest
	rounds       uint64
	inOrder      []uint64
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

// entry is one ordered request as the sequencer keeps it: its digest, and
// whether it is a null operation.
type entry struct {
	d    authn.Digest
	null bool
}

func entryOf(req msg.Request) entry {
	return entry{d: req.Digest(), null: req.Client == ids.NullOp}
}

// loggedRequest is one intake entry: an ordered request at its per-shard
// position, a history-reset marker replacing the shard's entries at
// positions >= pos, or a stable-checkpoint report at pos. All three travel
// one stream, so a reset is processed after every entry logged before it and
// before the adopted entries re-fed after it.
type loggedRequest struct {
	shard int
	pos   uint64
	req   msg.Request
	kind  feedKind
}

type feedKind uint8

const (
	feedLogged feedKind = iota
	feedReset
	feedStable
)

// NewExecutor creates and starts the execution stage.
func NewExecutor(cfg ExecutorConfig) *Executor {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = DefaultEpoch
	}
	e := &Executor{
		shards:  cfg.Shards,
		epoch:   cfg.Epoch,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		ctrl:    make(chan func()),
		digs:    make([][]entry, cfg.Shards),
		ooo:     make([]map[uint64]entry, cfg.Shards),
		stable:  make([]uint64, cfg.Shards),
		inOrder: make([]uint64, cfg.Shards),
		oooView: make([]uint64, cfg.Shards),
		tracer:  cfg.Tracer,
	}
	for s := range e.ooo {
		e.ooo[s] = make(map[uint64]entry)
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
// switch): the shard's entries at or beyond it are dropped, so the adopted
// values re-fed right after take their place. When some of them were merged
// already, the mirror first rewinds to the round holding `from` (clamped to
// the floor): the other shards' digests of the un-merged rounds, and the
// shard's own below `from`, merge again in order with the re-fed entries.
func (e *Executor) OnReset(shard int, from uint64) {
	e.feed(loggedRequest{shard: shard, pos: from, kind: feedReset})
}

// OnStable reports that the shard's checkpoint at position seq is stable:
// every replica logged the same prefix below it, so no reset reaches below
// it and the rounds under the floor it raises need not be kept.
func (e *Executor) OnStable(shard int, seq uint64) {
	e.feed(loggedRequest{shard: shard, pos: seq, kind: feedStable})
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

// MergedSnapshot returns the merged mirror's state at its current round
// boundary: the merged sequence length and its digest chain. Rounds commit
// atomically under stateMu, so the snapshot always sits on a round boundary —
// the alignment RestoreMerged requires.
func (e *Executor) MergedSnapshot() (seq uint64, digest authn.Digest) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.mergedSeq, e.mergedDigest
}

// RestoreMerged initializes the merged mirror from a peer's MergedSnapshot:
// a recovering replica adopts the merged sequence and digest chain at a round
// boundary (its per-shard sub-hosts then catch up via statesync and feed the
// suffix). The caller is responsible for the f+1 digest-agreement check
// across peers; seq must be a round-boundary multiple of shards*epoch and at
// or beyond the current merged sequence. The restore runs inside the merge
// loop, so it is also safe while feeds are live: the re-agreement retry uses
// it to move a stalled recovery to a newer boundary (buffered un-merged
// entries are dropped and entries below the new boundary are ignored — the
// re-pinned state transfers refill everything below it). The restored
// boundary is the new floor: no reset rewinds below it.
func (e *Executor) RestoreMerged(seq uint64, digest authn.Digest) error {
	errc := make(chan error, 1)
	fn := func() {
		errc <- e.applyRestore(seq, digest)
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
func (e *Executor) applyRestore(seq uint64, digest authn.Digest) error {
	round := uint64(e.shards) * uint64(e.epoch)
	if seq%round != 0 {
		return fmt.Errorf("shard: restore seq %d not on a round boundary (%d)", seq, round)
	}
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if seq < e.mergedSeq {
		return fmt.Errorf("shard: restore seq %d behind merged %d", seq, e.mergedSeq)
	}
	for s := 0; s < e.shards; s++ {
		e.digs[s] = e.digs[s][:0]
		e.ooo[s] = make(map[uint64]entry)
		e.inOrder[s] = seq / uint64(e.shards)
		e.oooView[s] = 0
	}
	e.starts, e.base, e.rounds = e.starts[:0], seq/round, seq/round
	e.traceSet = false
	e.mergedSeq = seq
	e.mergedDigest = digest
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
			e.trimKept()
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
		e.inOrder[s] = e.next(s)
		e.oooView[s] = uint64(len(e.ooo[s]))
	}
	e.stateMu.Unlock()
}

// next returns shard s's next in-order position.
func (e *Executor) next(s int) uint64 { return e.base*uint64(e.epoch) + uint64(len(e.digs[s])) }

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
	return e.rounds * uint64(e.epoch)
}

// drainIntake moves fed requests into the per-shard sequencers, restoring
// per-shard position order: a request logged at the next expected position
// extends the in-order span (and unblocks buffered successors); positions
// already consumed or already buffered are ignored (duplicate deliveries, or
// an adopted history re-feeding entries the shard kept). Resets and stable
// reports are applied in stream order.
func (e *Executor) drainIntake() {
	e.mu.Lock()
	batch := e.intake
	e.intake = e.drained[:0]
	e.mu.Unlock()
	for _, lr := range batch {
		s := lr.shard
		switch lr.kind {
		case feedReset:
			e.reset(s, lr.pos)
			continue
		case feedStable:
			e.stable[s] = max(e.stable[s], lr.pos)
			e.trimKept()
			continue
		}
		next := e.next(s)
		switch {
		case lr.pos < next:
			continue
		case lr.pos > next:
			if _, ok := e.ooo[s][lr.pos]; !ok && len(e.ooo[s]) < 4096 {
				e.ooo[s][lr.pos] = entryOf(lr.req)
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
		e.digs[s] = append(e.digs[s], entryOf(lr.req))
		for {
			next = e.next(s)
			en, ok := e.ooo[s][next]
			if !ok {
				break
			}
			delete(e.ooo[s], next)
			e.digs[s] = append(e.digs[s], en)
		}
	}
	clear(batch)
	e.drained = batch
}

// reset replaces shard s's entries at positions >= from; when some of them
// were merged, the mirror first rewinds to the round holding from. Positions
// below the floor are agreed by every replica, so from is clamped to it.
func (e *Executor) reset(s int, from uint64) {
	floor := e.base * uint64(e.epoch)
	from = max(from, floor)
	if r := from / uint64(e.epoch); r < e.rounds {
		// Un-merge rounds r and later. Their digests stay in digs, so
		// moving the merged prefix back queues them again.
		e.stateMu.Lock()
		e.mergedDigest = e.starts[r-e.base]
		e.rounds = r
		e.mergedSeq = r * uint64(e.shards*e.epoch)
		e.met.mergedSeq.Set(int64(e.mergedSeq))
		e.stateMu.Unlock()
		e.starts = e.starts[:r-e.base]
	}
	if keep := from - floor; keep < uint64(len(e.digs[s])) {
		e.digs[s] = e.digs[s][:keep]
	}
	for pos := range e.ooo[s] {
		if pos >= from {
			delete(e.ooo[s], pos)
		}
	}
}

// trimKept forgets the digests no reset can reach any more: those of the
// merged rounds below the round holding the lowest stable checkpoint over
// the shards.
func (e *Executor) trimKept() {
	drop := min(slices.Min(e.stable)/uint64(e.epoch), e.rounds)
	if drop <= e.base {
		return
	}
	k := int(drop - e.base)
	for s, d := range e.digs {
		e.digs[s] = d[:copy(d, d[k*e.epoch:])]
	}
	e.starts = e.starts[:copy(e.starts, e.starts[k:])]
	e.base += uint64(k)
}

// mergeRounds emits every complete shard epoch round: E digests of each
// shard in shard order, folded into the merged digest chain.
func (e *Executor) mergeRounds() {
	for {
		m := int(e.rounds-e.base) * e.epoch
		for _, d := range e.digs {
			if len(d) < m+e.epoch {
				return
			}
		}
		e.starts = append(e.starts, e.mergedDigest)
		// Fold outside any lock contended by the ordering path; stateMu only
		// serializes against snapshot readers.
		e.stateMu.Lock()
		for s, d := range e.digs {
			for _, en := range d[m : m+e.epoch] {
				e.mergedDigest = authn.HashAll(e.mergedDigest[:], en.d[:])
				if en.null {
					e.met.nullOps.Inc()
				}
			}
			if e.met.merged != nil {
				e.met.merged[s].Add(uint64(e.epoch))
			}
		}
		e.mergedSeq += uint64(e.shards * e.epoch)
		e.rounds++
		e.met.mergedSeq.Set(int64(e.mergedSeq))
		e.met.rounds.Inc()
		e.stateMu.Unlock()
		if e.traceSet && e.tracePos < e.rounds*uint64(e.epoch) {
			e.tracer.Record(e.traceCtx, obs.StageMerge, e.traceShard, e.traceT, time.Since(e.traceT))
			e.traceSet = false
			e.traceCtx = obs.TraceContext{}
		}
	}
}
