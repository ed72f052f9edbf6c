package main

import (
	"encoding/json"
	"fmt"
)

// The benchmark's definition: its workloads and the metrics it reports.
// BENCHMARK.json at the root of the repository is generated from these
// tables (`bash perfbench/run.sh spec`), and a test keeps the two equal.

const (
	runSeconds = 20
	clients    = 2 // callers of the library wait for each reply; nproc = 2
)

type engineKind int

const (
	sigEngine engineKind = iota
	gridEngine
)

func (e engineKind) String() string {
	if e == gridEngine {
		return "grid cube"
	}
	return "signature cube"
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	rows   int
	zipf   bool // Zipf-1.2 selection values instead of uniform ones
	engine engineKind
	// mixBlock > 0 mixes maintenance into the timed op list: every block of
	// mixBlock ops holds one insert and, later, one delete of that insert.
	mixBlock int
	// probeOps maintenance ops (insert, then delete of it) run by one client
	// after the timed phase, for workloads whose op list is read-only.
	probeOps int
	// probeCollect forces a collection before each probe op, outside its
	// timing. A signature-cube maintenance op on 200K rows allocates so
	// much that a collection would otherwise land in every few ops, and
	// which ones it lands in would decide the percentiles.
	probeCollect bool
	// countOps is the fixed prefix of the timed op list that the count
	// metrics average over, so they repeat exactly for a seed; the timed
	// phase always runs at least this many ops.
	countOps int
}

// gateQueries is the size of the seeded sample checked against
// BaselineQuery before timing and again at the end.
const gateQueries = 20

var workloads = []workload{
	{
		Name: "sig-zipf",
		Why: "Paper's main path: Zipf-1.2 selections on a 200K-row signature cube, heavy tail. " +
			"Stresses sigcube search, signatures and pager reads; bypasses gridcube.",
		rows: 200_000, zipf: true, engine: sigEngine,
		probeOps: 200, probeCollect: true, countOps: 3840,
	},
	{
		Name: "grid-uniform",
		Why: "Uniform selections on a 200K-row grid cube, short queries. Stresses gridcube, " +
			"the pager Touch path and per-query serving cost; bypasses sigcube.",
		rows: 200_000, zipf: false, engine: gridEngine,
		probeOps: 20000, countOps: 19200,
	},
	{
		Name: "sig-maint",
		Why: "50K-row signature cube, 80% queries and 20% insert/delete. Stresses sigcube " +
			"maintenance and the exclusive guard lock beside reads; bypasses gridcube.",
		rows: 50_000, zipf: true, engine: sigEngine,
		mixBlock: 10, countOps: 2400,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// e2eMetric is an end-to-end metric: what a user of the library sees,
// measured with tracing off. Bound is the share of the parent's median by
// which it may worsen before a change counts as a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is a per-layer metric from the traced run. moves names the
// end-to-end metric and workload it should move.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`

	moves string
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_p99_us", "us", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"maint_p50_us", "us", "lower", 0.25},
	{"maint_p90_us", "us", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.01},
	{"blocks_per_query", "count", "lower", 0.2},
	{"alloc_kb_per_op", "KB", "lower", 0.1},
	{"cube_bytes_per_row", "B", "lower", 0.2},
	{"heap_mb", "MB", "lower", 0.05},
}

// The engine.* metrics read the engine that serves the workload: the
// signature cube's tester and search phases, or the grid cube's plan and
// search phases. Every workload thus reports every metric.
var perLayer = []layerMetric{
	{"rankcube.self_us", "us", "lower", "query_p50_us on grid-uniform"},
	{"serving.wait_us.p50", "us", "lower", "query_p50_us on sig-maint"},
	{"serving.wait_us.p99", "us", "lower", "query_p99_us on sig-maint"},
	{"admission.queued_ratio", "ratio", "lower", "query_p99_us on sig-maint"},
	{"engine.tester_us.p50", "us", "lower", "query_p50_us on sig-zipf (tester), grid-uniform (plan)"},
	{"engine.tester_us.p99", "us", "lower", "query_p99_us on sig-zipf"},
	{"engine.search_us.p50", "us", "lower", "query_p50_us and query_qps on grid-uniform"},
	{"engine.search_us.p99", "us", "lower", "query_p99_us on sig-zipf"},
	{"engine.states_examined", "count", "lower", "query_p99_us and alloc_kb_per_op on sig-zipf"},
	{"engine.states_generated", "count", "lower", "query_p99_us and alloc_kb_per_op on sig-zipf"},
	{"engine.peak_heap", "count", "lower", "alloc_kb_per_op on sig-zipf"},
	{"engine.useful_state_ratio", "ratio", "higher", "query_p99_us on sig-zipf"},
	{"engine.maint_us", "us", "lower", "maint_p50_us on sig-maint"},
	{"guard.exclusive_wait_ratio", "ratio", "lower", "maint_p50_us on sig-maint"},
	{"pager.blocks.rtree", "count", "lower", "blocks_per_query on sig-zipf"},
	{"pager.blocks.signature", "count", "lower", "blocks_per_query on sig-zipf"},
	{"pager.blocks.cube", "count", "lower", "blocks_per_query on grid-uniform"},
	{"pager.blocks.blocktab", "count", "lower", "blocks_per_query on grid-uniform"},
	{"pager.pages_per_maint_op", "count", "lower", "cube_bytes_per_row on sig-maint"},
	{"obs.trace_overhead_pct", "%", "lower", "none: tracing is off in the end-to-end run"},
}

type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workload    `json:"workloads"`
	EndToEnd   []e2eMetric   `json:"end_to_end"`
	PerLayer   []layerMetric `json:"per_layer"`
}

// specJSON renders BENCHMARK.json.
func specJSON() ([]byte, error) {
	b, err := json.MarshalIndent(benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render spec: %w", err)
	}
	return append(b, '\n'), nil
}

// unitOf returns a metric's unit.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
