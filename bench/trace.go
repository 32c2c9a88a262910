package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"abstractbft/internal/obs"
)

// Span names of the exported trace: the benchmark's own root span around
// Invoke, and the replica-side lifecycle stages the program records into its
// obs.SpanRing for requests that carry the benchmark's trace context.
const (
	spanSend     = "core.send"
	spanAssemble = "host.assemble"
	spanOrder    = "host.order"
	spanExecute  = "host.execute"
	spanMerge    = "shard.merge"
	spanReply    = "host.reply"
)

// stageSpanName maps the program's stage names onto layer-prefixed span
// names ("" for a stage the export does not carry).
func stageSpanName(stage string) string {
	switch stage {
	case "assemble":
		return spanAssemble
	case "order":
		return spanOrder
	case "execute":
		return spanExecute
	case "merge":
		return spanMerge
	case "reply":
		return spanReply
	}
	return ""
}

// Span is one exported span: name, start, end, and the span that caused it;
// spans of one request share TraceID.
type Span struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Process string `json:"process"`
	Shard   int    `json:"shard"`
	StartNs int64  `json:"start_unix_nano"`
	EndNs   int64  `json:"end_unix_nano"`
}

// TraceFile is the document written to out/<workload>.trace.json when a
// traced run ends.
type TraceFile struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	SampleEvery int    `json:"sample_every"`
	Spans       []Span `json:"spans"`
}

// collectSpans joins the benchmark's root spans with the replicas' ring
// spans by trace ID; ring spans of traces without a root (requests sampled
// before the traced window's clients, or evicted roots) are dropped.
func collectSpans(roots []Span, rings []*obs.SpanRing) []Span {
	known := make(map[uint64]bool, len(roots))
	for _, r := range roots {
		known[r.TraceID] = true
	}
	spans := append([]Span(nil), roots...)
	for _, ring := range rings {
		for _, sp := range ring.Snapshot() {
			name := stageSpanName(sp.Stage)
			if name == "" || !known[sp.TraceID] {
				continue
			}
			spans = append(spans, Span{
				TraceID: sp.TraceID, SpanID: sp.SpanID, Parent: sp.Parent,
				Name: name, Process: sp.Process, Shard: sp.Shard,
				StartNs: sp.Start, EndNs: sp.Start + sp.DurationNs,
			})
		}
	}
	return spans
}

// WriteTraceFile writes the spans of a traced run.
func WriteTraceFile(path string, tf TraceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadTraceFile loads an exported trace.
func ReadTraceFile(path string) (TraceFile, error) {
	var tf TraceFile
	data, err := os.ReadFile(path)
	if err != nil {
		return tf, err
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return tf, fmt.Errorf("bench: trace file %s: %w", path, err)
	}
	return tf, nil
}

// Budget is the latency budget of a traced window, computed from exported
// spans only: per sampled trace the stage times on the slowest replica, and
// the residual the stages do not explain.
type Budget struct {
	// Traces is the number of sampled requests (root spans); Complete those
	// with replica-side stage spans (the replicas trace one sampled request
	// per batch, so a second sampled request in the same batch has only its
	// root and reply events).
	Traces, Complete int
	Send             Samples // every root span
	Assemble         Samples // traces that have the stage
	Order            Samples
	Execute          Samples
	Merge            Samples
	// Residual is send - (assemble + order + execute) per complete trace; a
	// stage the trace does not have counts 0. It is the root span's self time
	// on the reply path: network, codec, MAC and client-side verification.
	Residual Samples
}

// ComputeBudget folds exported spans into the budget.
func ComputeBudget(spans []Span) *Budget {
	type stages struct {
		send, assemble, order, execute, merge              time.Duration
		hasRoot, hasStage, hasAssemble, hasOrder, hasMerge bool
	}
	traces := make(map[uint64]*stages)
	get := func(id uint64) *stages {
		t := traces[id]
		if t == nil {
			t = &stages{}
			traces[id] = t
		}
		return t
	}
	longest := func(cur *time.Duration, d time.Duration) {
		if d > *cur {
			*cur = d
		}
	}
	for _, sp := range spans {
		d := time.Duration(sp.EndNs - sp.StartNs)
		t := get(sp.TraceID)
		switch sp.Name {
		case spanSend:
			t.send, t.hasRoot = d, true
		case spanAssemble:
			longest(&t.assemble, d)
			t.hasAssemble, t.hasStage = true, true
		case spanOrder:
			longest(&t.order, d)
			t.hasOrder, t.hasStage = true, true
		case spanExecute:
			longest(&t.execute, d)
			t.hasStage = true
		case spanMerge:
			longest(&t.merge, d)
			t.hasMerge = true
		}
	}
	ids := make([]uint64, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b := &Budget{}
	for _, id := range ids {
		t := traces[id]
		if !t.hasRoot {
			continue
		}
		b.Traces++
		b.Send.Add(t.send)
		if t.hasMerge {
			b.Merge.Add(t.merge)
		}
		if !t.hasStage {
			continue
		}
		b.Complete++
		if t.hasAssemble {
			b.Assemble.Add(t.assemble)
		}
		if t.hasOrder {
			b.Order.Add(t.order)
		}
		b.Execute.Add(t.execute)
		b.Residual.Add(t.send - t.assemble - t.order - t.execute)
	}
	return b
}

// Row renders the budget row printed for every traced window.
func (b *Budget) Row() string {
	return fmt.Sprintf("budget p50 ms: host.assemble %.4f | host.order %.4f | host.execute %.4f | trace.residual %.4f | core.send %.4f  (%d sampled, %d with stage spans)",
		ms(b.Assemble.P50()), ms(b.Order.P50()), ms(b.Execute.P50()), ms(b.Residual.P50()), ms(b.Send.P50()), b.Traces, b.Complete)
}
