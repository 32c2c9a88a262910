package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
)

// drainGrace bounds how long a stopping load generator waits for in-flight
// invocations before cancelling them (above the timers defaultDelta arms, so
// a slow request finishes instead of being counted as failed).
const drainGrace = 15 * time.Second

// sample is one committed invocation: when it completed (ns since the load
// generator's epoch) and how long it took.
type sample struct {
	end, lat int64
}

// stream is one closed-loop invocation stream: it issues its next request
// only after the previous one returned.
type stream struct {
	inv invoker
	id  ids.ProcessID
	// ts is the client's timestamp counter, shared by the streams of one
	// pipelining client so timestamps stay unique and increasing.
	ts  *atomic.Uint64
	gen generator

	samples   []sample
	roots     []Span
	attempted uint64
	failed    uint64
	firstErr  error
}

// loadgen drives every stream of a plane.
type loadgen struct {
	p       *plane
	streams []*stream
	oracle  *kvOracle
	epoch   time.Time

	// committed counts commits across streams; reaching warmN closes warm
	// (the end of set-up).
	committed atomic.Uint64
	warmN     uint64
	warm      chan struct{}

	stop   atomic.Bool
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// startLoad builds the streams of plane p from seed and starts them; warm-up
// ends once warmup requests have committed.
func startLoad(ctx context.Context, p *plane, seed int64, warmup int) *loadgen {
	lg := &loadgen{p: p, epoch: time.Now(), warmN: uint64(warmup), warm: make(chan struct{})}
	lg.ctx, lg.cancel = context.WithCancel(ctx)
	if p.w.TCP {
		lg.oracle = newKVOracle()
	}
	total := len(p.clients) * p.w.Streams
	for c, inv := range p.clients {
		ts := new(atomic.Uint64)
		for s := 0; s < p.w.Streams; s++ {
			index := c*p.w.Streams + s
			st := &stream{inv: inv, id: p.ids[c], ts: ts, gen: nullGen{}}
			if lg.oracle != nil {
				st.gen = &kvGen{o: lg.oracle, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(index))), index: index, streams: total}
			}
			lg.streams = append(lg.streams, st)
		}
	}
	for _, st := range lg.streams {
		lg.wg.Add(1)
		go lg.run(st)
	}
	return lg
}

func (lg *loadgen) run(st *stream) {
	defer lg.wg.Done()
	var sampler *obs.Tracer
	if lg.p.obs != nil {
		sampler = lg.p.obs.sampler
	}
	for !lg.stop.Load() {
		command, check := st.gen.next()
		req := msg.Request{Client: st.id, Timestamp: st.ts.Add(1), Command: command}
		// Head sampling is the client's decision: a sampled request carries
		// its trace context on the wire and every replica records spans under
		// it; the root span around Invoke is the benchmark's own.
		tc := sampler.NewTrace()
		if tc.Sampled() {
			req.Trace = obs.TraceContext{TraceID: tc.TraceID, Parent: tc.TraceID}
		}
		t0 := time.Now()
		reply, err := st.inv.Invoke(lg.ctx, req)
		t1 := time.Now()
		st.attempted++
		if err == nil {
			err = check(reply)
		}
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			if lg.ctx.Err() != nil {
				return
			}
			continue
		}
		st.samples = append(st.samples, sample{end: int64(t1.Sub(lg.epoch)), lat: int64(t1.Sub(t0))})
		if tc.Sampled() {
			st.roots = append(st.roots, Span{
				TraceID: tc.TraceID, SpanID: tc.TraceID, Name: spanSend, Process: "bench",
				StartNs: t0.UnixNano(), EndNs: t0.UnixNano() + int64(t1.Sub(t0)),
			})
		}
		if lg.committed.Add(1) == lg.warmN {
			close(lg.warm)
		}
	}
}

// awaitWarm blocks until the warm-up request count has committed.
func (lg *loadgen) awaitWarm() error {
	select {
	case <-lg.warm:
		return nil
	case <-lg.ctx.Done():
		return fmt.Errorf("bench: warm-up of %s did not finish: %w", lg.p.w.Name, lg.ctx.Err())
	}
}

// halt stops issuing requests and waits for the in-flight ones; invocations
// still outstanding after drainGrace are cancelled and count as failed.
func (lg *loadgen) halt() {
	lg.stop.Store(true)
	done := make(chan struct{})
	go func() {
		lg.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainGrace):
		lg.cancel()
		<-done
	}
	lg.cancel()
}

// totals sums the streams' counters (call after halt).
func (lg *loadgen) totals() (attempted, failed uint64, firstErr error) {
	for _, st := range lg.streams {
		attempted += st.attempted
		failed += st.failed
		if firstErr == nil {
			firstErr = st.firstErr
		}
	}
	return attempted, failed, firstErr
}

// mark is one window boundary as the coordinator observed it.
type mark struct {
	at  int64         // ns since the load generator's epoch
	cpu time.Duration // process user+sys CPU so far
}

func (lg *loadgen) mark() mark {
	return mark{at: int64(time.Since(lg.epoch)), cpu: processCPU()}
}

// processCPU is the process's user+system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure lets the running load settle, then marks n+1 boundaries window
// apart. Windows are cut at the times the coordinator actually woke, so a
// late wake-up moves a boundary instead of skewing a rate. onMark, when
// non-nil, runs right after boundary i is marked.
func (lg *loadgen) measure(settle, window time.Duration, n int, onMark func(i int)) []mark {
	time.Sleep(settle)
	start := time.Now()
	marks := make([]mark, 0, n+1)
	for i := 0; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * window)))
		marks = append(marks, lg.mark())
		if onMark != nil {
			onMark(i)
		}
	}
	return marks
}

// WindowStat is one measured window.
type WindowStat struct {
	Seconds       float64 `json:"seconds"`
	Committed     int     `json:"committed"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"latency_p50_ms"`
	P99Ms         float64 `json:"latency_p99_ms"`
	MaxMs         float64 `json:"latency_max_ms"`
	// TailRatio is P99Ms / P50Ms of this window.
	TailRatio float64 `json:"latency_tail_ratio"`
	// BeyondP99 is the number of samples above the p99 rank.
	BeyondP99   int     `json:"samples_beyond_p99"`
	CPUUsPerReq float64 `json:"cpu_us_per_req"`
}

// windows cuts the committed samples at the marks (call after halt).
func (lg *loadgen) windows(marks []mark) []WindowStat {
	stores := make([]Samples, len(marks)-1)
	for _, st := range lg.streams {
		// A stream's samples are in completion order, so the window index
		// only ever moves forward.
		i := 0
		for _, sm := range st.samples {
			for i < len(stores) && sm.end >= marks[i+1].at {
				i++
			}
			if i == len(stores) {
				break
			}
			if sm.end >= marks[i].at {
				stores[i].Add(time.Duration(sm.lat))
			}
		}
	}
	out := make([]WindowStat, len(stores))
	for i := range stores {
		out[i] = summarize(&stores[i], time.Duration(marks[i+1].at-marks[i].at), marks[i+1].cpu-marks[i].cpu)
	}
	return out
}

// summarize turns one window's samples into its statistics.
func summarize(s *Samples, length, cpu time.Duration) WindowStat {
	w := WindowStat{
		Seconds:   length.Seconds(),
		Committed: s.Len(),
		P50Ms:     ms(s.P50()),
		P99Ms:     ms(s.P99()),
		MaxMs:     ms(s.Max()),
		BeyondP99: s.BeyondP99(),
	}
	if length > 0 {
		w.ThroughputRPS = float64(s.Len()) / length.Seconds()
	}
	if s.Len() > 0 {
		w.CPUUsPerReq = float64(cpu) / float64(time.Microsecond) / float64(s.Len())
	}
	if w.P50Ms > 0 {
		w.TailRatio = w.P99Ms / w.P50Ms
	}
	return w
}
