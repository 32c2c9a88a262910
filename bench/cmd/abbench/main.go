// Command abbench runs the repository's benchmark (see bench/README.md):
//
//	go run -C bench ./cmd/abbench -workload zlight-sat -seed 1
//
// runs one workload from a seed, checks its outputs, prints every metric by
// name with its unit, and ends standard output with one JSON object
// {"correct", "attempted", "failed", "metrics"}. -trace 0 measures only the
// end-to-end metrics (observability off), -trace 1 only the per-layer metrics
// (traced run plus the isolated layer probes); the default does both.
//
//	abbench -compare a b     compare two result files or directories
//	abbench -budget f        recompute the latency budget of a trace export
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"abstractbft/bench"
)

func main() {
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "workload seed (key choice, put/get mix, transport.Options.Seed)")
	seconds := flag.Float64("seconds", 25, "measured seconds of the run")
	trace := flag.Int("trace", bench.TraceBoth, "0 = end-to-end metrics only, 1 = per-layer metrics only, -1 = both")
	quick := flag.Bool("quick", false, "smoke-test size: one set-up, short settle, small probes")
	out := flag.String("out", "out", "directory for <workload>.seed<n>.json and <workload>.trace.json (empty = write nothing)")
	compare := flag.Bool("compare", false, "compare two result files or directories given as arguments")
	budget := flag.String("budget", "", "print the latency budget of a trace export and exit")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files or directories"))
		}
		a, err := bench.ReadResults(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := bench.ReadResults(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if n := bench.Compare(os.Stdout, a, b); n > 0 {
			fmt.Printf("%d unresolved\n", n)
			os.Exit(1)
		}
		return
	case *budget != "":
		tf, err := bench.ReadTraceFile(*budget)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s seed %d: %s\n", tf.Workload, tf.Seed, bench.ComputeBudget(tf.Spans).Row())
		return
	}

	w, err := bench.WorkloadByName(*workload)
	if err != nil {
		fatal(err)
	}
	if *trace < bench.TraceBoth || *trace > bench.TraceOn {
		fatal(fmt.Errorf("-trace must be 0, 1 or -1, got %d", *trace))
	}
	res, err := bench.Run(context.Background(), bench.Options{
		Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace, Quick: *quick, OutDir: *out, Log: os.Stdout,
	})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res.Final())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abbench:", err)
	os.Exit(2)
}
