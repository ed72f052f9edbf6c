// Command perfbench is the repository's benchmark: closed-loop workloads
// driven through rankcube's public API, checked against BaselineQuery,
// with an untraced run for the end-to-end metrics and a traced run for the
// per-layer breakdown.
//
// Run it from the root of the repository through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload sig-zipf --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare parent.txt change.txt
//	bash perfbench/run.sh spec > BENCHMARK.json
//
// See perfbench/README.md for the workloads and what each metric measures.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"
)

// heapLimit is the heap the benchmark lets the Go runtime grow to before
// it collects. At the default GOGC=100 a 13 MB live heap that a workload
// allocates 400 MB/s into is collected about 30 times a second, and which
// ops those collections land in set the run-to-run spread of every timing.
// A fixed budget collects a few times a second; what a change allocates
// still shows in alloc_kb_per_op.
const heapLimit = 256 << 20

func main() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(heapLimit)
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "spec":
			b, err := specJSON()
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			stdout.Write(b)
			return 0
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		}
	}

	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the op lists are drawn from")
	seconds := fs.Float64("seconds", runSeconds, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1 runs the traced phase and reports the per-layer metrics")
	spans := fs.String("spans", "", "where the traced run writes its spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --seconds > 0, --trace 0 or 1\n", workloadNames())
		return 2
	}
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", w.Name, *seed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, out, err := runWorkload(ctx, runConfig{
		w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, spans: *spans,
	}, stdout)
	var bad errIncorrect
	if errors.As(err, &bad) {
		fmt.Fprintln(stderr, "perfbench:", err)
		b, _ := json.Marshal(result{Metrics: map[string]metricValue{}})
		fmt.Fprintf(stdout, "%s\n", b)
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printTable(stdout, out, *trace == 1)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// printTable prints each metric with its unit and the samples behind it.
func printTable(w io.Writer, out []measured, traced bool) {
	for _, m := range out {
		unit := unitOf(m.name)
		line := fmt.Sprintf("%-28s %14.4f %-6s n=%-7d %s", m.name, m.value, unit, m.n, m.note)
		if traced {
			for _, l := range perLayer {
				if l.Name == m.name {
					line += "; moves " + l.moves
				}
			}
		}
		fmt.Fprintln(w, line)
	}
}
