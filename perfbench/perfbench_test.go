package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"rankcube"
)

func TestOpListRepeatsForASeedAndDiffersForAnother(t *testing.T) {
	for _, w := range workloads {
		l := opList{seed: 7, id: listTimed, skewed: w.zipf, block: w.mixBlock}
		again, other := l, l
		other.seed = 8
		differs := false
		for i := range int64(3 * cycle) {
			if a, b := l.at(i), again.at(i); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: op %d differs between two draws with seed 7:\n%+v\n%+v", w.Name, i, a, b)
			}
			if !reflect.DeepEqual(l.at(i), other.at(i)) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 draw the same op list", w.Name)
		}
	}
}

func TestMixedListDeletesEachInsertLaterInItsBlock(t *testing.T) {
	l := opList{seed: 3, id: listTimed, skewed: true, block: 10}
	for b := range int64(50) {
		var ins, del []int64
		for i := b * 10; i < (b+1)*10; i++ {
			switch o := l.at(i); o.kind {
			case opInsert:
				ins = append(ins, i)
				if o.pair != b {
					t.Fatalf("insert %d keyed %d, want %d", i, o.pair, b)
				}
			case opDelete:
				del = append(del, i)
				if o.pair != b {
					t.Fatalf("delete %d keyed %d, want %d", i, o.pair, b)
				}
			}
		}
		if len(ins) != 1 || len(del) != 1 || ins[0] >= del[0] {
			t.Fatalf("block %d: inserts at %v, deletes at %v; want one insert before one delete", b, ins, del)
		}
	}
}

func TestQueryValuesCoverEveryStratumOncePerCycle(t *testing.T) {
	l := opList{seed: 5, id: listTimed}
	counts := map[int32]int{}
	for i := range int64(cycle) {
		for _, v := range l.query(i).cond {
			counts[v]++
		}
	}
	// Uniform values: 180 conditions over 20 values, each stratum of width
	// 1/60 inside one value, so each value is hit exactly 9 times.
	for v := int32(0); v < selCard; v++ {
		if counts[v] != 3*cycle/2/selCard {
			t.Fatalf("value %d drawn %d times in one cycle, want %d: %v", v, counts[v], 3*cycle/2/selCard, counts)
		}
	}
}

func TestClosedLoopRunsMixedOpsAndKeepsAnswersExact(t *testing.T) {
	ctx := context.Background()
	w := workload{rows: 5000, zipf: true, engine: sigEngine, mixBlock: 10}
	tgt, err := setUp(w)
	if err != nil {
		t.Fatal(err)
	}
	sp := &spanLog{origin: time.Now()}
	hooked := 0
	ph := tgt.run(ctx, phase{
		ops: opList{seed: 1, id: listTimed, skewed: true, block: w.mixBlock}, workers: clients,
		traced: true, minOps: 100, maxOps: 200, minQueries: 1000, afterPrefix: func() { hooked++ },
	}, sp)
	if len(ph.recs) != 200 || hooked != 1 {
		t.Fatalf("%d records and %d calls after the prefix, want 200 and 1", len(ph.recs), hooked)
	}
	// A phase that ends with its prefix still calls afterPrefix.
	tgt.run(ctx, phase{
		ops: opList{seed: 2, id: listTimed, skewed: true, block: w.mixBlock}, workers: clients,
		minOps: 50, afterPrefix: func() { hooked++ },
	}, nil)
	if hooked != 2 {
		t.Fatalf("a phase of just its prefix called afterPrefix %d times, want once", hooked-1)
	}
	kinds := map[opKind]int{}
	for i, r := range ph.recs {
		if r.idx != int64(i) || r.err != nil {
			t.Fatalf("record %d: op %d, error %v", i, r.idx, r.err)
		}
		kinds[r.kind]++
	}
	if kinds[opInsert] != 20 || kinds[opDelete] != 20 {
		t.Fatalf("ran %v, want 20 inserts and 20 deletes", kinds)
	}
	if len(sp.spans) == 0 {
		t.Fatal("the traced phase logged no spans")
	}
	if err := checkAnswers(ctx, tgt, opList{seed: 1, id: listGate, skewed: true}, 20); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrationPausesTheLoopAndLeavesItsTimeOut(t *testing.T) {
	ctx := context.Background()
	w := workload{rows: 2000, zipf: true, engine: sigEngine, mixBlock: 10}
	tgt, err := setUp(w)
	if err != nil {
		t.Fatal(err)
	}
	cal := &calibrator{workers: clients}
	start := time.Now()
	ph := tgt.run(ctx, phase{
		ops: opList{seed: 1, id: listTimed, skewed: true, block: w.mixBlock}, workers: clients,
		dur: 2*calEvery + calEvery/2, cal: cal,
	}, nil)
	wall := time.Since(start)
	if len(cal.samples) < 2 || cal.held < time.Duration(len(cal.samples))*calSlice {
		t.Fatalf("%d samples held the loop %v, want at least 2 of %v each", len(cal.samples), cal.held, calSlice)
	}
	if ph.elapsed > wall-cal.held {
		t.Fatalf("elapsed %v, want at most %v of wall time less %v paused", ph.elapsed, wall, cal.held)
	}
	for i, r := range ph.recs {
		if r.idx != int64(i) || r.err != nil {
			t.Fatalf("record %d: op %d, error %v", i, r.idx, r.err)
		}
	}
	if factor, ref := cal.scale(0, cal.mark()); ref <= 0 || factor != refNominalNS/ref {
		t.Fatalf("scale %v from reference %v", factor, ref)
	}

	// A chunked one-worker phase samples before each chunk and after the
	// last, without pausing.
	n, held := cal.mark(), cal.held
	probe := tgt.run(ctx, phase{
		ops: opList{seed: 1, id: listProbe, skewed: true, block: 2}, workers: 1,
		minOps: 20, maxOps: 20, cal: cal, chunks: 4,
	}, nil)
	if len(probe.recs) != 20 || cal.mark()-n != 5 || cal.held != held {
		t.Fatalf("%d ops, %d samples, held %v more; want 20, 5 and none", len(probe.recs), cal.mark()-n, cal.held-held)
	}
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}, {0.999, 10000}} {
		if got := samplesFor(c.p); got != c.want {
			t.Errorf("samplesFor(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 0.99); got != 990 || beyond(1000, 0.99) != 10 {
		t.Errorf("p99 of 1..1000 = %g with %d beyond, want 990 with 10", got, beyond(1000, 0.99))
	}
}

func TestMaintenanceIsCostedByWholePairs(t *testing.T) {
	recs := []record{
		{kind: opInsert, pair: 1, client: 10 * time.Microsecond},
		{kind: opQuery, pair: 0, client: time.Second},
		{kind: opInsert, pair: 2, client: 30 * time.Microsecond, err: errors.New("refused")},
		{kind: opDelete, pair: 1, client: 2 * time.Microsecond},
		{kind: opDelete, pair: 2, err: errInsertFailed},
		{kind: opInsert, pair: 3, client: 5 * time.Microsecond}, // its delete never ran
	}
	if got, want := pairLatencies(recs), []float64{12, math.Inf(1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pair latencies %v, want %v", got, want)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// planted answers Query wrongly in one way and BaselineQuery truly.
type planted struct {
	answerer
	plant func([]rankcube.Result) []rankcube.Result
}

func (p planted) Query(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int, opts ...rankcube.Option) ([]rankcube.Result, error) {
	res, err := p.answerer.Query(ctx, cond, f, k, opts...)
	return p.plant(res), err
}

func TestGateRejectsAPlantedWrongAnswer(t *testing.T) {
	ctx := context.Background()
	rel := rankcube.GenerateRelation(3000, selDims, rankDims, selCard, rankcube.Uniform, 1)
	gate := opList{seed: 1, id: listGate}
	cubes := map[string]answerer{
		"signature": rankcube.BuildSignatureCube(rel, rankcube.SigOptions{}),
		"grid":      rankcube.BuildGridCube(rel, rankcube.GridOptions{}),
	}
	for name, c := range cubes {
		if err := checkAnswers(ctx, c, gate, 30); err != nil {
			t.Fatalf("%s cube fails the gate: %v", name, err)
		}
	}
	plants := map[string]func([]rankcube.Result) []rankcube.Result{
		"wrong tid": func(r []rankcube.Result) []rankcube.Result {
			if len(r) > 0 {
				r[len(r)-1].TID += 1_000_000
			}
			return r
		},
		"wrong score": func(r []rankcube.Result) []rankcube.Result {
			if len(r) > 0 {
				r[0].Score += 1e-9
			}
			return r
		},
		"missing result": func(r []rankcube.Result) []rankcube.Result {
			if len(r) > 0 {
				return r[1:]
			}
			return r
		},
		"wrong order": func(r []rankcube.Result) []rankcube.Result {
			if len(r) > 1 {
				r[0], r[1] = r[1], r[0]
			}
			return r
		},
	}
	for name, plant := range plants {
		var bad errIncorrect
		if err := checkAnswers(ctx, planted{cubes["signature"], plant}, gate, 30); !errors.As(err, &bad) {
			t.Errorf("a planted %s: the gate returns %v, want a mismatch", name, err)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	s := &rankcube.Span{Dur: 10 * time.Microsecond, Children: []*rankcube.Span{
		{Dur: 3 * time.Microsecond}, {Dur: 4 * time.Microsecond},
	}}
	if got := selfTime(s); got != 3*time.Microsecond {
		t.Fatalf("selfTime = %v, want 3µs", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	parent := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, c := range []struct {
		name, better string
		bound        float64
		change       []float64
		want         string
	}{
		{"same", "lower", 0.1, parent, "same"},
		{"regression", "lower", 0.1, scale(parent, 1.2), "regression"},
		{"better", "lower", 0.1, scale(parent, 0.8), "better"},
		{"higher is better", "higher", 0.1, scale(parent, 0.8), "regression"},
		{"per-layer worse", "lower", 0, scale(parent, 1.2), "worse"},
		{"unresolved", "lower", 0.01, parent, "unresolved"},
	} {
		if got := judge("m", "us", c.better, c.bound, parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestBenchmarkJSONIsTheSpec(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with `bash perfbench/run.sh spec > BENCHMARK.json`")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
		if w.countOps%cycle != 0 {
			t.Errorf("%s: countOps %d is not whole cycles of %d", w.Name, w.countOps, cycle)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
