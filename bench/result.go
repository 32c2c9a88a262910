package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// WriteResultFile writes one run's result as indented JSON.
func WriteResultFile(path string, res *Result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadResults loads the result files behind path: the file itself, or every
// result file of a directory (trace exports are skipped).
func ReadResults(path string) ([]*Result, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*Result
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		res := &Result{}
		if err := json.Unmarshal(data, res); err != nil {
			return nil, fmt.Errorf("bench: result file %s: %w", f, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// FinalLine is the one JSON object a run prints last on standard output.
type FinalLine struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Final assembles the final line: every end-to-end metric of an untraced
// run, every per-layer metric of a traced one, both for TraceBoth.
func (r *Result) Final() FinalLine {
	fl := FinalLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]Metric{}}
	for k, v := range r.EndToEnd {
		fl.Metrics[k] = v
	}
	for k, v := range r.PerLayer {
		fl.Metrics[k] = v
	}
	return fl
}

// Compare prints every end-to-end metric of every workload present in both
// result sets as the ratio b/a with its base. A side with several runs of a
// workload (different seeds or invocations) is represented by the median of
// their values, and its spread is the runs' IQR over that median; a side with
// one run falls back to that run's window IQR over window median. A pairing
// is "unresolved" when b is worse than a by more than the metric's bound, or
// when either side's spread is wider than the bound. It returns the number
// of unresolved pairings.
func Compare(w io.Writer, a, b []*Result) int {
	group := func(rs []*Result) map[string][]*Result {
		m := make(map[string][]*Result)
		for _, r := range rs {
			if r.EndToEnd != nil {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	am, bm := group(a), group(b)
	unresolved := 0
	for _, wl := range Workloads {
		ra, rb := am[wl.Name], bm[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s  (a: %d runs, commit %.12s  b: %d runs, commit %.12s)\n", wl.Name, len(ra), ra[0].Env.GitCommit, len(rb), rb[0].Env.GitCommit)
		for _, d := range EndToEnd {
			va, sa := sideOf(ra, d.Name)
			vb, sb := sideOf(rb, d.Name)
			if va == 0 {
				fmt.Fprintf(w, "  %-16s base 0, no ratio  unresolved\n", d.Name)
				unresolved++
				continue
			}
			ratio := vb / va
			worse := ratio - 1
			if d.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "within bound"
			switch {
			case worse > d.Bound:
				verdict = fmt.Sprintf("unresolved: worse by %.1f %% > bound %.0f %%", worse*100, d.Bound*100)
			case sa > d.Bound || sb > d.Bound:
				verdict = fmt.Sprintf("unresolved: spread %.1f %% / %.1f %% wider than bound %.0f %%", sa*100, sb*100, d.Bound*100)
			}
			if verdict != "within bound" {
				unresolved++
			}
			fmt.Fprintf(w, "  %-16s b/a = %.3f  (a = %.4f %s, b = %.4f %s; spread %.1f %% / %.1f %%)  %s\n",
				d.Name, ratio, va, d.Unit, vb, d.Unit, sa*100, sb*100, verdict)
		}
	}
	return unresolved
}

// sideOf reduces one side's runs of a workload to the metric's value and its
// relative spread.
func sideOf(runs []*Result, name string) (value, spread float64) {
	sp := runs[0].Spread[name]
	value = runs[0].EndToEnd[name].Value
	if len(runs) > 1 {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = r.EndToEnd[name].Value
		}
		sp = spreadOf(vs)
		value = sp.Median
	}
	if sp.Median != 0 {
		spread = sp.IQR / sp.Median
	}
	return value, spread
}
