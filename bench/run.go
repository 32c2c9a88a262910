package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// Trace modes of a run.
const (
	// TraceOff measures the end-to-end metrics only, observability off.
	TraceOff = 0
	// TraceOn measures the per-layer metrics only: an untraced half for the
	// allocator counters and the overhead base, a traced half, and the
	// isolated layer probes.
	TraceOn = 1
	// TraceBoth does one after the other.
	TraceBoth = -1
)

// Run shape. A run measures for Options.Seconds; the end-to-end half cuts
// that into windows of about windowLength on the one running cluster and
// reports each metric's good-side decile over the windows (see goodDecile).
const (
	windowLength = 500 * time.Millisecond
	minWindows   = 5
	// setupReps is how many times a run sets the cluster up; setup_s is the
	// median (the last set-up is the one measured on).
	setupReps = 3
	// settleTime is the unmeasured time between the end of set-up and the
	// first window.
	settleTime = time.Second
	// runDeadline bounds a whole run beyond its measured seconds.
	runDeadline = 150 * time.Second
)

// Options selects and sizes one run.
type Options struct {
	Workload Workload
	// Seed drives key choice, the put/get mix and transport.Options.Seed.
	Seed int64
	// Seconds is the measured time of the run.
	Seconds float64
	// Trace is TraceOff, TraceOn or TraceBoth.
	Trace int
	// Quick shrinks set-up repetitions, settle time and the layer probes to
	// smoke-test size; its numbers mean nothing.
	Quick bool
	// OutDir receives <workload>.seed<n>.json and <workload>.trace.json (""
	// = none).
	OutDir string
	// Log receives the human-readable report (nil = discard).
	Log io.Writer

	// Test hooks: tamper is handed every plane right after it is built (fault
	// injection); delta overrides the clients' synchrony bound so an injected
	// fault is detected in milliseconds.
	tamper func(p *plane)
	delta  time.Duration
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is everything one run measured; it is the result file's schema.
type Result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Quick    bool    `json:"quick,omitempty"`
	Env      Env     `json:"env"`

	// Correct is false when any output check failed; CheckErrors says which.
	Correct     bool     `json:"correct"`
	Attempted   uint64   `json:"attempted"`
	Failed      uint64   `json:"failed"`
	CheckErrors []string `json:"check_errors,omitempty"`

	// EndToEnd holds the end-to-end metrics; Windows, SetupS and Spread the
	// values behind each of them.
	EndToEnd map[string]Metric `json:"end_to_end,omitempty"`
	Windows  []WindowStat      `json:"windows,omitempty"`
	SetupS   []float64         `json:"setup_s,omitempty"`
	Spread   map[string]Spread `json:"spread,omitempty"`

	// PerLayer holds the per-layer metrics of the traced half and the layer
	// probes; UntracedWindow and TracedWindow are the two halves' windows.
	PerLayer       map[string]Metric `json:"per_layer,omitempty"`
	UntracedWindow *WindowStat       `json:"untraced_window,omitempty"`
	TracedWindow   *WindowStat       `json:"traced_window,omitempty"`
	BudgetRow      string            `json:"budget_row,omitempty"`
}

// session is one set-up cluster with load running on it.
type session struct {
	p     *plane
	lg    *loadgen
	setup time.Duration
}

// openSession builds the plane, starts the load and waits for the fixed
// warm-up: everything setup_s covers.
func openSession(ctx context.Context, o Options, traced bool) (*session, error) {
	t0 := time.Now()
	p, err := buildPlane(ctx, o, traced)
	if err != nil {
		return nil, fmt.Errorf("bench: building %s: %w", o.Workload.Name, err)
	}
	if o.tamper != nil {
		o.tamper(p)
	}
	warmup := o.Workload.WarmupRequests
	if o.Quick {
		warmup /= 10
	}
	lg := startLoad(ctx, p, o.Seed, warmup)
	if err := lg.awaitWarm(); err != nil {
		lg.halt()
		p.stop()
		return nil, err
	}
	return &session{p: p, lg: lg, setup: time.Since(t0)}, nil
}

// finish stops the load, runs the output checks, tears the plane down and
// folds the session's counters into res.
func (s *session) finish(ctx context.Context, res *Result, check bool) {
	s.lg.halt()
	var errs []string
	if check {
		errs = checkOutputs(ctx, s)
	}
	s.p.stop()
	attempted, failed, firstErr := s.lg.totals()
	res.Attempted += attempted
	res.Failed += failed
	if firstErr != nil {
		errs = append(errs, fmt.Sprintf("%d of %d invocations failed, first: %v", failed, attempted, firstErr))
	}
	if len(errs) > 0 {
		res.Correct = false
		res.CheckErrors = append(res.CheckErrors, errs...)
	}
}

// Run executes one run of one workload and returns what it measured. A
// result with Correct == false is returned without error; err reports only
// runs that could not be carried out.
func Run(ctx context.Context, o Options) (*Result, error) {
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("bench: run length must be positive, got %v s", o.Seconds)
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(o.Seconds*float64(time.Second))+runDeadline)
	defer cancel()
	res := &Result{Workload: o.Workload.Name, Seed: o.Seed, Seconds: o.Seconds, Quick: o.Quick, Env: Stamp(), Correct: true}
	fmt.Fprintf(o.Log, "== %s  seed %d  %.1f s ==\n-- %s\n", o.Workload.Name, o.Seed, o.Seconds, o.Workload.Why)
	if o.Trace != TraceOn {
		if err := runEndToEnd(ctx, o, res); err != nil {
			return nil, err
		}
	}
	if o.Trace != TraceOff {
		if err := runPerLayer(ctx, o, res); err != nil {
			return nil, err
		}
	}
	for _, e := range res.CheckErrors {
		fmt.Fprintf(o.Log, "OUTPUT CHECK FAILED: %s\n", e)
	}
	if o.OutDir != "" {
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return nil, err
		}
		if err := WriteResultFile(filepath.Join(o.OutDir, fmt.Sprintf("%s.seed%d.json", o.Workload.Name, o.Seed)), res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// perWindow extracts the windowed metrics from a window.
var perWindow = map[string]func(WindowStat) float64{
	"throughput_rps":     func(w WindowStat) float64 { return w.ThroughputRPS },
	"latency_p50_ms":     func(w WindowStat) float64 { return w.P50Ms },
	"latency_p99_ms":     func(w WindowStat) float64 { return w.P99Ms },
	"latency_tail_ratio": func(w WindowStat) float64 { return w.TailRatio },
	"cpu_us_per_req":     func(w WindowStat) float64 { return w.CPUUsPerReq },
}

// overWindows summarises one metric over the windows; Value is its good-side
// decile.
func overWindows(ws []WindowStat, f func(WindowStat) float64, higherIsBetter bool) Spread {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = f(w)
	}
	sp := spreadOf(vs)
	sp.Value = goodDecile(vs, higherIsBetter)
	return sp
}

// windowsIn returns the length and number of the back-to-back windows that
// cover seconds of measurement.
func windowsIn(seconds float64) (time.Duration, int) {
	n := int(math.Round(seconds / windowLength.Seconds()))
	if n < minWindows {
		n = minWindows
	}
	return time.Duration(seconds / float64(n) * float64(time.Second)), n
}

func (o Options) settle() time.Duration {
	if o.Quick {
		return 50 * time.Millisecond
	}
	return settleTime
}

// runEndToEnd is the untraced protocol: set up setupReps times (median =
// setup_s), settle, measure back-to-back windows on the last cluster,
// quiesce, check outputs, tear down.
func runEndToEnd(ctx context.Context, o Options, res *Result) error {
	reps := setupReps
	if o.Quick {
		reps = 1
	}
	var s *session
	for r := 0; r < reps; r++ {
		if s != nil {
			s.finish(ctx, res, false)
		}
		var err error
		if s, err = openSession(ctx, o, false); err != nil {
			return err
		}
		res.SetupS = append(res.SetupS, s.setup.Seconds())
	}
	window, n := windowsIn(o.Seconds)
	marks := s.lg.measure(o.settle(), window, n, nil)
	s.finish(ctx, res, true)
	res.Windows = s.lg.windows(marks)

	res.Spread = make(map[string]Spread, len(EndToEnd))
	res.EndToEnd = make(map[string]Metric, len(EndToEnd))
	for _, d := range EndToEnd {
		var sp Spread
		if f, ok := perWindow[d.Name]; ok {
			sp = overWindows(res.Windows, f, d.Better == "higher")
		} else { // setup_s: the median of the set-ups
			sp = spreadOf(res.SetupS)
			sp.Value = sp.Median
		}
		res.Spread[d.Name] = sp
		res.EndToEnd[d.Name] = Metric{Value: sp.Value, Unit: d.Unit}
	}

	fmt.Fprintf(o.Log, "end-to-end (observability off; good-side decile of %d windows of %.2f s; closed loop, %d clients x %d streams):\n",
		len(res.Windows), res.Windows[0].Seconds, o.Workload.Clients, o.Workload.Streams)
	for _, d := range EndToEnd {
		sp := res.Spread[d.Name]
		fmt.Fprintf(o.Log, "  %-16s %12.4f %-6s  median %.4f  min %.4f  max %.4f  iqr %.4f\n", d.Name, sp.Value, d.Unit, sp.Median, sp.Min, sp.Max, sp.IQR)
	}
	for _, name := range []string{"latency_p99_ms", "cpu_us_per_req"} {
		sp := overWindows(res.Windows, perWindow[name], false)
		fmt.Fprintf(o.Log, "  (%-15s %12.4f         median %.4f  min %.4f  max %.4f  iqr %.4f; per-layer metric, not gated)\n", name, sp.Value, sp.Median, sp.Min, sp.Max, sp.IQR)
	}
	samples := overWindows(res.Windows, func(w WindowStat) float64 { return float64(w.Committed) }, true)
	beyond := overWindows(res.Windows, func(w WindowStat) float64 { return float64(w.BeyondP99) }, true)
	fmt.Fprintf(o.Log, "  samples per window: median %.0f (min %.0f), beyond p99: median %.0f (min %.0f)\n", samples.Median, samples.Min, beyond.Median, beyond.Min)
	fmt.Fprintf(o.Log, "  attempted %d  failed %d\n", res.Attempted, res.Failed)
	return nil
}
