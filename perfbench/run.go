package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"rankcube"
)

// setupRuns is how often a run loads and builds; setup_s is the median.
const setupRuns = 3

// probeChunks is how many chunks the maintenance probe runs its ops in,
// with a host-speed sample before each and after the last.
const probeChunks = 20

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measured is one metric of a run with the samples behind it.
type measured struct {
	name  string
	value float64
	n     int
	note  string
}

type runConfig struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	spans   string // where the traced run writes its spans
}

// runWorkload runs one workload and returns its result and the metrics
// behind it, in the order the spec lists them.
func runWorkload(ctx context.Context, cfg runConfig, log io.Writer) (result, []measured, error) {
	w := cfg.w
	cal := &calibrator{workers: clients}
	var setups []float64
	var t *target
	for range setupRuns {
		t = nil
		cal.sample()
		runtime.GC()
		start := time.Now()
		var err error
		if t, err = setUp(w); err != nil {
			return result{}, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	cal.sample()
	fSetup, refSetup := cal.scale(0, cal.mark())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	fmt.Fprintf(log, "%s seed %d: %d rows on a %s, %d clients, set up in %.3fs (median of %d)\n",
		w.Name, cfg.seed, w.rows, w.engine, clients, median(setups), setupRuns)

	gate := opList{seed: cfg.seed, id: listGate, skewed: w.zipf}
	if err := checkAnswers(ctx, t, gate, gateQueries); err != nil {
		return result{}, nil, err
	}

	mixed := opList{seed: cfg.seed, skewed: w.zipf, block: w.mixBlock}
	warm := mixed
	warm.id = listWarm
	t.run(ctx, phase{ops: warm, workers: clients, dur: cfg.seconds / 10}, nil)

	timed := mixed
	timed.id = listTimed
	p := phase{
		ops: timed, workers: clients, dur: cfg.seconds, minOps: int64(w.countOps),
		minQueries: int64(samplesFor(0.99)), cal: cal,
	}
	if w.mixBlock > 0 {
		// Two ops a pair, and the phase may end between the two of one.
		p.minMaint = 2 * int64(samplesFor(0.9)+1)
	}
	var prefixBytes int64
	p.afterPrefix = func() { prefixBytes = t.size() }
	var spans *spanLog
	if cfg.trace {
		p.traced = true
		spans = &spanLog{origin: time.Now()}
	}
	reg := rankcube.DefaultRegistry()
	queued, admitted := reg.Counter("admission.bench.queued"), reg.Counter("admission.bench.admitted")
	q0, a0, pages0 := queued.Value(), admitted.Value(), t.pages()
	timedCal := cal.mark()
	cal.sample()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	ph := t.run(ctx, p, spans)
	runtime.ReadMemStats(&ms)
	allocKB := float64(ms.TotalAlloc-allocBefore) / 1024 / float64(len(ph.recs))
	cal.sample()
	fTimed, refTimed := cal.scale(timedCal, cal.mark())
	fMaint, refMaint := fTimed, refTimed
	queuedRatio := float64(queued.Value()-q0) / math.Max(1, float64(admitted.Value()-a0))
	all := [][]record{ph.recs}
	maintRecs := ph.recs
	pagesPerMaint := float64(t.pages()-pages0) / math.Max(1, float64(count(ph.recs, isMaint)))

	if w.probeOps > 0 {
		runtime.GC()
		pages0, probeCal := t.pages(), cal.mark()
		probe := t.run(ctx, phase{
			ops:     opList{seed: datasetSeed, id: listProbe, skewed: w.zipf, block: 2},
			workers: 1, traced: cfg.trace, minOps: int64(w.probeOps), maxOps: int64(w.probeOps),
			collect: w.probeCollect, cal: cal, chunks: probeChunks,
		}, spans)
		fMaint, refMaint = cal.scale(probeCal, cal.mark())
		pagesPerMaint = float64(t.pages()-pages0) / float64(len(probe.recs))
		all = append(all, probe.recs)
		maintRecs = probe.recs
	}

	if err := ctx.Err(); err != nil {
		return result{}, nil, fmt.Errorf("interrupted: %w", err)
	}
	if err := checkAnswers(ctx, t, gate, gateQueries); err != nil {
		return result{}, nil, fmt.Errorf("after maintenance: %w", err)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, recs := range all {
		for _, r := range recs {
			res.Attempted++
			if r.err != nil {
				res.Failed++
				fmt.Fprintf(log, "op %d (%s) failed: %v\n", r.idx, r.kind, r.err)
			}
		}
	}

	var out []measured
	if !cfg.trace {
		out = endToEndMetrics(w, ph, maintRecs, res, median(setups), heapMB, allocKB, prefixBytes)
	} else {
		out = layerMetrics(w, ph.recs, maintRecs, queuedRatio, pagesPerMaint)
		if err := spans.write(cfg.spans); err != nil {
			return result{}, nil, err
		}
		fmt.Fprintf(log, "%d spans written to %s\n", len(spans.spans), cfg.spans)
	}
	fmt.Fprintf(log, "host speed: reference kernel %.2f ns/element in set-up, %.2f in the timed phase, %.2f in maintenance; timings scaled to %d\n",
		refSetup, refTimed, refMaint, refNominalNS)
	for i := range out {
		m := &out[i]
		unit := unitOf(m.name)
		raw := m.value
		factor := fTimed
		switch m.name {
		case "setup_s":
			factor = fSetup
		case "maint_p50_us", "maint_p90_us", "engine.maint_us":
			factor = fMaint
		}
		switch unit {
		case "s", "us":
			m.value *= factor
		case "1/s":
			m.value /= factor
		}
		if m.value != raw {
			m.note = strings.TrimPrefix(fmt.Sprintf("%s; raw %.4f", m.note, raw), "; ")
		}
		// JSON has no infinity: a percentile that lands on a failed op
		// reads as the largest float.
		res.Metrics[m.name] = metricValue{Value: min(m.value, math.MaxFloat64), Unit: unit}
	}
	return res, out, nil
}

func clientTime(r *record) time.Duration { return r.client }

// endToEndMetrics derives what a user sees from the untraced run.
func endToEndMetrics(w workload, ph phaseResult, maintRecs []record, res result, setupS, heapMB, allocKB float64, prefixBytes int64) []measured {
	qlat := latencies(ph.recs, isQuery, clientTime)
	mlat := pairLatencies(maintRecs)
	prefix := ph.recs[:w.countOps]
	var reads int64
	rows := w.rows
	for _, r := range prefix {
		switch {
		case r.kind == opQuery:
			for _, n := range r.reads {
				reads += n
			}
		case r.err != nil:
		case r.kind == opInsert:
			rows++
		case r.kind == opDelete:
			rows--
		}
	}
	nq, nqPrefix := count(ph.recs, isQuery), count(prefix, isQuery)
	return []measured{
		{"setup_s", setupS, setupRuns, "median of the builds"},
		pct("query_p50_us", qlat, 0.5),
		pct("query_p99_us", qlat, 0.99),
		{"query_qps", float64(nq) / ph.elapsed.Seconds(), nq, fmt.Sprintf("over %.2fs", ph.elapsed.Seconds())},
		pct("maint_p50_us", mlat, 0.5),
		pct("maint_p90_us", mlat, 0.9),
		{"ok_ratio", float64(res.Attempted-res.Failed) / float64(res.Attempted), int(res.Attempted), "ops that neither failed nor were refused"},
		{"blocks_per_query", mean(float64(reads), nqPrefix), nqPrefix, "fixed prefix of the op list"},
		{"alloc_kb_per_op", allocKB, len(ph.recs), ""},
		{"cube_bytes_per_row", float64(prefixBytes) / float64(rows), rows, "live rows once the fixed prefix has run"},
		{"heap_mb", heapMB, 1, "live heap after set-up"},
	}
}

// layerMetrics derives the per-layer metrics from the traced ops of the
// timed phase, its untraced ops and the maintenance records.
func layerMetrics(w workload, recs, maintRecs []record, queuedRatio, pagesPerMaint float64) []measured {
	tracedQuery := func(r *record) bool { return r.kind == opQuery && r.traced }
	rooted := func(r *record) bool { return tracedQuery(r) && r.hasRoot }
	self := latencies(recs, rooted, func(r *record) time.Duration { return r.rootSelf })
	wait := latencies(recs, rooted, (*record).wait)
	tester := latencies(recs, func(r *record) bool { return rooted(r) && r.hasTester },
		func(r *record) time.Duration { return r.tester })
	search := latencies(recs, func(r *record) bool { return rooted(r) && r.hasSearch },
		func(r *record) time.Duration { return r.search })
	// Grid maintenance takes no trace, so its engine time is the client span.
	tracedMaint := func(r *record) bool { return isMaint(r) && r.traced }
	maint := latencies(maintRecs, tracedMaint, func(r *record) time.Duration {
		if r.hasRoot {
			return r.root
		}
		return r.client
	})
	var waitSum, clientSum time.Duration
	nWait := 0
	for i := range maintRecs {
		if r := &maintRecs[i]; tracedMaint(r) && r.hasRoot {
			waitSum += r.wait()
			clientSum += r.client
			nWait++
		}
	}

	var examined, generated, pruned, heap int64
	var reads [len(structures)]int64
	prefix := recs[:w.countOps]
	for i := range prefix {
		r := &prefix[i]
		if !tracedQuery(r) {
			continue
		}
		examined += r.examined
		generated += r.generated
		pruned += r.pruned
		heap += int64(r.peakHeap)
		for i, n := range r.reads {
			reads[i] += n
		}
	}
	nq := count(prefix, tracedQuery)
	perQuery := func(name string, v int64) measured {
		return measured{name, mean(float64(v), nq), nq, "per traced query of the fixed prefix"}
	}
	untracedP50 := percentile(latencies(recs, func(r *record) bool { return r.kind == opQuery && !r.traced }, clientTime), 0.5)
	tracedP50 := percentile(latencies(recs, tracedQuery, clientTime), 0.5)
	out := []measured{
		pct("rankcube.self_us", self, 0.5),
		pct("serving.wait_us.p50", wait, 0.5),
		pct("serving.wait_us.p99", wait, 0.99),
		{"admission.queued_ratio", queuedRatio, count(recs, isQuery), "admission.bench.queued / admitted"},
		pct("engine.tester_us.p50", tester, 0.5),
		pct("engine.tester_us.p99", tester, 0.99),
		pct("engine.search_us.p50", search, 0.5),
		pct("engine.search_us.p99", search, 0.99),
		perQuery("engine.states_examined", examined),
		perQuery("engine.states_generated", generated),
		perQuery("engine.peak_heap", heap),
		{"engine.useful_state_ratio", mean(float64(examined-pruned), int(examined)), nq, "(examined - pruned) / examined"},
		pct("engine.maint_us", maint, 0.5),
		{"guard.exclusive_wait_ratio", float64(waitSum) / math.Max(1, float64(clientSum)), nWait, "(client - root) / client over maintenance"},
	}
	for i, s := range structures {
		out = append(out, perQuery("pager.blocks."+string(s), reads[i]))
	}
	return append(out,
		measured{"pager.pages_per_maint_op", pagesPerMaint, count(maintRecs, isMaint), "page growth of Stores()"},
		measured{"obs.trace_overhead_pct", 100 * (tracedP50 - untracedP50) / untracedP50, count(recs, isQuery),
			fmt.Sprintf("traced p50 %.1fus vs untraced %.1fus", tracedP50, untracedP50)},
	)
}

func isQuery(r *record) bool { return r.kind == opQuery }
func isMaint(r *record) bool { return r.kind != opQuery }

func count(recs []record, keep func(*record) bool) int {
	n := 0
	for i := range recs {
		if keep(&recs[i]) {
			n++
		}
	}
	return n
}

// latencies returns the kept records' durations in microseconds, sorted.
// A failed op missed every latency limit, so it counts as +Inf.
func latencies(recs []record, keep func(*record) bool, d func(*record) time.Duration) []float64 {
	var out []float64
	for i := range recs {
		r := &recs[i]
		switch {
		case !keep(r):
		case r.err != nil:
			out = append(out, math.Inf(1))
		default:
			out = append(out, us(d(r)))
		}
	}
	slices.Sort(out)
	return out
}

// pairLatencies returns, sorted and in microseconds, the client time of
// each insert plus that of the delete that removes its tuple, over the
// pairs recs holds whole. Maintenance is costed by such pairs because
// inserts and deletes are half the maintenance ops each and cost unlike
// amounts (a grid-cube insert appends to every cuboid, its delete sets a
// tombstone): the median single op sits on the edge between the two kinds
// and reads the slowest delete, which varies from run to run.
func pairLatencies(recs []record) []float64 {
	type pair struct {
		d      time.Duration
		n      int
		failed bool
	}
	pairs := map[int64]*pair{}
	for i := range recs {
		r := &recs[i]
		if !isMaint(r) {
			continue
		}
		pr := pairs[r.pair]
		if pr == nil {
			pr = &pair{}
			pairs[r.pair] = pr
		}
		pr.d += r.client
		pr.n++
		pr.failed = pr.failed || r.err != nil
	}
	var out []float64
	for _, pr := range pairs {
		switch {
		case pr.n < 2:
		case pr.failed:
			out = append(out, math.Inf(1))
		default:
			out = append(out, us(pr.d))
		}
	}
	slices.Sort(out)
	return out
}

// pct reports percentile p of sorted latencies, noting the highest
// percentile the sample count supports.
func pct(name string, sorted []float64, p float64) measured {
	n := len(sorted)
	note := fmt.Sprintf("%d beyond", beyond(n, p))
	if beyond(n, p) < minBeyond {
		note += fmt.Sprintf(", too few: highest supported is p%g", 100*tailPercentile(n))
	}
	return measured{name, percentile(sorted, p), n, note}
}
