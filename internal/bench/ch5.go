package bench

import (
	"fmt"
	"time"

	"rankcube/internal/baselines"
	"rankcube/internal/btree"
	"rankcube/internal/core"
	"rankcube/internal/dataset"
	"rankcube/internal/hindex"
	"rankcube/internal/indexmerge"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

func init() {
	register("tbl5.1", tbl5_1)
	register("fig5.7", func(c Config) *Report { return fig5_time(c, "fig5.7", "fs") })
	register("fig5.8", func(c Config) *Report { return fig5_time(c, "fig5.8", "fg") })
	register("fig5.9", func(c Config) *Report { return fig5_time(c, "fig5.9", "fc") })
	register("fig5.10", func(c Config) *Report { return fig5_metric(c, "fig5.10", metricDisk) })
	register("fig5.11", func(c Config) *Report { return fig5_metric(c, "fig5.11", metricStates) })
	register("fig5.12", func(c Config) *Report { return fig5_metric(c, "fig5.12", metricHeap) })
	register("fig5.13", fig5_13)
	register("fig5.14", fig5_14)
	register("fig5.15", func(c Config) *Report { return fig5_threeWay(c, "fig5.15", metricTime) })
	register("fig5.16", func(c Config) *Report { return fig5_threeWay(c, "fig5.16", metricHeap) })
	register("fig5.17", func(c Config) *Report { return fig5_threeWay(c, "fig5.17", metricDisk) })
	register("fig5.18", fig5_18)
	register("fig5.19", fig5_19)
	register("fig5.20", fig5_20)
	register("fig5.21", fig5_21)
	register("fig5.22", fig5_22)
}

type metricKind int

const (
	metricTime metricKind = iota
	metricDisk
	metricStates
	metricHeap
)

// ch5Env holds two B+-tree indices over a 2-ranking-dimension relation plus
// the table-scan competitor and the join-signature.
type ch5Env struct {
	tb   *table.Table
	idx  []hindex.Index
	js   *indexmerge.JoinSignature
	heap *baselines.HeapFile
}

func newCh5Env(cfg Config, thesisRows int) *ch5Env {
	tb := dataset.Synthetic(cfg.T(thesisRows), 1, 2, 2, table.Uniform, cfg.Seed)
	dom := ranking.UnitBox(2)
	idx := []hindex.Index{
		btree.Build(tb, 0, dom, btree.Config{}),
		btree.Build(tb, 1, dom, btree.Config{}),
	}
	js, err := indexmerge.BuildJoinSignature(idx, tb.Len(), indexmerge.JoinSigConfig{})
	must(err)
	return &ch5Env{tb: tb, idx: idx, js: js, heap: baselines.NewHeapFile(tb)}
}

// ch5Func builds one of the §5.4.2 controlled functions.
func ch5Func(cfg Config, name string, trial int) ranking.Func {
	rng := cfg.rng(int64(trial)*31 + int64(len(name)))
	switch name {
	case "fs":
		return ranking.SqDist([]int{0, 1}, []float64{rng.Float64(), rng.Float64()})
	case "fg":
		return ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(0), ranking.Sqr(ranking.Var(1)))))
	default: // fc
		lo := rng.Float64() * 0.7
		return ranking.Constrained(ranking.Sum(0, 1), 1, lo, lo+0.2)
	}
}

// ch5Measure runs one merge configuration over the workload.
func (e *ch5Env) measure(cfg Config, fname string, k int, opts indexmerge.Options) measurement {
	return run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
		f := ch5Func(cfg, fname, qi)
		if _, err := indexmerge.TopK(e.idx, f, k, opts, ctr); err != nil {
			must(err)
		}
	})
}

func (e *ch5Env) measureTS(cfg Config, fname string, k int) measurement {
	ts := baselines.NewTableScan(e.heap)
	return run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
		f := ch5Func(cfg, fname, qi)
		ts.TopK(core.Cond{}, f, k, ctr)
	})
}

// tbl5_1: basic vs improved index-merge on f = (A−B²)², top-100.
func tbl5_1(cfg Config) *Report {
	env := newCh5Env(cfg, 1_000_000)
	rep := &Report{ID: "tbl5.1", Title: "Significance of the two challenges (basic vs improved merge)",
		XLabel: "method", Metric: "count (avg/query)"}
	f := ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(0), ranking.Sqr(ranking.Var(1)))))
	runOne := func(opts indexmerge.Options) *stats.Counters {
		ctr := stats.New()
		if _, err := indexmerge.TopK(env.idx, f, 100, opts, ctr); err != nil {
			must(err)
		}
		return ctr
	}
	basic := runOne(indexmerge.Options{Strategy: indexmerge.StrategyBL})
	improved := runOne(indexmerge.Options{Strategy: indexmerge.StrategyPE, Pruner: env.js})
	rep.Series = []Series{
		{Name: "states", Points: []Point{
			{X: "Basic", Value: float64(basic.StatesGenerated)},
			{X: "Improved", Value: float64(improved.StatesGenerated)},
		}},
		{Name: "disk", Points: []Point{
			{X: "Basic", Value: float64(basic.TotalReads())},
			{X: "Improved", Value: float64(improved.TotalReads())},
		}},
	}
	return rep
}

// fig5_time: execution time w.r.t. K for one function family; series TS,
// BL, PE, PE+SIG.
func fig5_time(cfg Config, id, fname string) *Report {
	env := newCh5Env(cfg, 1_000_000)
	rep := &Report{ID: id, Title: fmt.Sprintf("Execution Time w.r.t. K, f = %s", fname),
		XLabel: "k", Metric: "ms/query"}
	var ts, bl, pe, sig Series
	ts.Name, bl.Name, pe.Name, sig.Name = "TS", "BL", "PE", "PE+SIG"
	for _, k := range []int{10, 20, 50, 100} {
		x := fmt.Sprintf("k=%d", k)
		ts.Points = append(ts.Points, Point{X: x, Value: env.measureTS(cfg, fname, k).ms()})
		bl.Points = append(bl.Points, Point{X: x,
			Value: env.measure(cfg, fname, k, indexmerge.Options{Strategy: indexmerge.StrategyBL}).ms()})
		pe.Points = append(pe.Points, Point{X: x,
			Value: env.measure(cfg, fname, k, indexmerge.Options{}).ms()})
		sig.Points = append(sig.Points, Point{X: x,
			Value: env.measure(cfg, fname, k, indexmerge.Options{Pruner: env.js}).ms()})
	}
	rep.Series = []Series{ts, bl, pe, sig}
	return rep
}

// fig5_metric: disk access / states / peak heap per function at k = 100.
func fig5_metric(cfg Config, id string, kind metricKind) *Report {
	env := newCh5Env(cfg, 1_000_000)
	titles := map[metricKind]string{
		metricDisk:   "Disk Access w.r.t. f, k = 100",
		metricStates: "States Generated w.r.t. f, k = 100",
		metricHeap:   "Peak Heap Size w.r.t. f, k = 100",
	}
	metrics := map[metricKind]string{
		metricDisk:   "block reads/query",
		metricStates: "states/query",
		metricHeap:   "max heap entries",
	}
	rep := &Report{ID: id, Title: titles[kind], XLabel: "function", Metric: metrics[kind]}
	var bl, pe, sig Series
	bl.Name, pe.Name, sig.Name = "BL", "PE", "PE+SIG"
	for _, fname := range []string{"fs", "fg", "fc"} {
		add := func(s *Series, opts indexmerge.Options) {
			m := env.measure(cfg, fname, 100, opts)
			var v float64
			switch kind {
			case metricDisk:
				v = m.avgReads()
			case metricStates:
				v = float64(m.counters.StatesGenerated) / float64(m.queries)
			case metricHeap:
				v = float64(m.counters.PeakHeap)
			}
			s.Points = append(s.Points, Point{X: fname, Value: v})
		}
		add(&bl, indexmerge.Options{Strategy: indexmerge.StrategyBL})
		add(&pe, indexmerge.Options{})
		add(&sig, indexmerge.Options{Pruner: env.js})
	}
	rep.Series = []Series{bl, pe, sig}
	return rep
}

// fig5_13: execution time w.r.t. K on the (cloned) CoverType variation: 6
// attributes split across two 3-d R-trees.
func fig5_13(cfg Config) *Report {
	tb := dataset.ForestCoverWide(cfg.T(1_162_024), cfg.Seed)
	dom := rankDomain(tb)
	idx := []hindex.Index{
		rtree.Bulk(tb, []int{0, 1, 2}, dom, rtree.Config{}),
		rtree.Bulk(tb, []int{3, 4, 5}, dom, rtree.Config{}),
	}
	js, err := indexmerge.BuildJoinSignature(idx, tb.Len(), indexmerge.JoinSigConfig{})
	must(err)
	h := baselines.NewHeapFile(tb)
	ts := baselines.NewTableScan(h)

	rep := &Report{ID: "fig5.13", Title: "Execution Time w.r.t. K, Real Data",
		XLabel: "k", Metric: "ms/query",
		Notes: []string{"synthetic CoverType clone, 6 attributes in two 3-d R-trees"}}
	fsFor := func(qi int) ranking.Func {
		rng := cfg.rng(int64(qi) * 17)
		target := make([]float64, 6)
		attrs := make([]int, 6)
		for d := 0; d < 6; d++ {
			attrs[d] = d
			target[d] = rng.Float64()
		}
		return ranking.SqDist(attrs, target)
	}
	var tsS, blS, peS, sigS Series
	tsS.Name, blS.Name, peS.Name, sigS.Name = "TS", "BL", "PE", "PE+SIG"
	for _, k := range []int{10, 20, 50, 100} {
		x := fmt.Sprintf("k=%d", k)
		m := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) { ts.TopK(core.Cond{}, fsFor(qi), k, ctr) })
		tsS.Points = append(tsS.Points, Point{X: x, Value: m.ms()})
		for _, cfg2 := range []struct {
			s    *Series
			opts indexmerge.Options
		}{
			{&blS, indexmerge.Options{Strategy: indexmerge.StrategyBL}},
			{&peS, indexmerge.Options{}},
			{&sigS, indexmerge.Options{Pruner: js}},
		} {
			m := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
				if _, err := indexmerge.TopK(idx, fsFor(qi), k, cfg2.opts, ctr); err != nil {
					must(err)
				}
			})
			cfg2.s.Points = append(cfg2.s.Points, Point{X: x, Value: m.ms()})
		}
	}
	rep.Series = []Series{tsS, blS, peS, sigS}
	return rep
}

func rankDomain(tb *table.Table) ranking.Box {
	r := tb.Schema().R()
	lo := make([]float64, r)
	hi := make([]float64, r)
	for d := 0; d < r; d++ {
		lo[d], hi[d] = tb.RankDomain(d)
		if hi[d] <= lo[d] {
			hi[d] = lo[d] + 1
		}
	}
	return ranking.NewBox(lo, hi)
}

// fig5_14: execution time w.r.t. per-R-tree dimensionality (two R-trees
// over 2d…8d data), k = 100.
func fig5_14(cfg Config) *Report {
	rep := &Report{ID: "fig5.14", Title: "Execution Time w.r.t. R-Tree",
		XLabel: "dims per R-tree", Metric: "ms/query"}
	var tsS, peS, sigS Series
	tsS.Name, peS.Name, sigS.Name = "TS", "PE", "PE+SIG"
	for _, d := range []int{1, 2, 3, 4} {
		tb := dataset.Synthetic(cfg.T(1_000_000), 1, 2*d, 2, table.Uniform, cfg.Seed)
		dom := ranking.UnitBox(2 * d)
		dims1 := make([]int, d)
		dims2 := make([]int, d)
		attrs := make([]int, 2*d)
		for i := 0; i < d; i++ {
			dims1[i] = i
			dims2[i] = d + i
		}
		for i := range attrs {
			attrs[i] = i
		}
		idx := []hindex.Index{
			rtree.Bulk(tb, dims1, dom, rtree.Config{}),
			rtree.Bulk(tb, dims2, dom, rtree.Config{}),
		}
		js, err := indexmerge.BuildJoinSignature(idx, tb.Len(), indexmerge.JoinSigConfig{})
		must(err)
		h := baselines.NewHeapFile(tb)
		ts := baselines.NewTableScan(h)
		fsFor := func(qi int) ranking.Func {
			rng := cfg.rng(int64(qi)*29 + int64(d))
			target := make([]float64, 2*d)
			for i := range target {
				target[i] = rng.Float64()
			}
			return ranking.SqDist(attrs, target)
		}
		x := fmt.Sprintf("%dd", d)
		m := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) { ts.TopK(core.Cond{}, fsFor(qi), 100, ctr) })
		tsS.Points = append(tsS.Points, Point{X: x, Value: m.ms()})
		m = run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			if _, err := indexmerge.TopK(idx, fsFor(qi), 100, indexmerge.Options{}, ctr); err != nil {
				must(err)
			}
		})
		peS.Points = append(peS.Points, Point{X: x, Value: m.ms()})
		m = run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			if _, err := indexmerge.TopK(idx, fsFor(qi), 100, indexmerge.Options{Pruner: js}, ctr); err != nil {
				must(err)
			}
		})
		sigS.Points = append(sigS.Points, Point{X: x, Value: m.ms()})
	}
	rep.Series = []Series{tsS, peS, sigS}
	return rep
}

// threeWayEnv builds three B+-trees plus the 3d and pairwise 2d signatures.
type threeWayEnv struct {
	tb    *table.Table
	idx   []hindex.Index
	sig3  *indexmerge.JoinSignature
	pairs *indexmerge.PairwisePruner
}

func newThreeWayEnv(cfg Config) *threeWayEnv {
	tb := dataset.Synthetic(cfg.T(1_000_000), 1, 3, 2, table.Uniform, cfg.Seed)
	dom := ranking.UnitBox(3)
	var idx []hindex.Index
	for d := 0; d < 3; d++ {
		idx = append(idx, btree.Build(tb, d, dom, btree.Config{}))
	}
	sig3, err := indexmerge.BuildJoinSignature(idx, tb.Len(), indexmerge.JoinSigConfig{})
	must(err)
	pairs := map[[2]int]*indexmerge.JoinSignature{}
	for _, pr := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		js, err := indexmerge.BuildJoinSignature([]hindex.Index{idx[pr[0]], idx[pr[1]]}, tb.Len(), indexmerge.JoinSigConfig{})
		must(err)
		pairs[pr] = js
	}
	return &threeWayEnv{tb: tb, idx: idx, sig3: sig3, pairs: &indexmerge.PairwisePruner{Pairs: pairs}}
}

// fig5_threeWay: 3-way merge time / heap / disk w.r.t. K for PE, PE+2dSIG,
// PE+3dSIG.
func fig5_threeWay(cfg Config, id string, kind metricKind) *Report {
	env := newThreeWayEnv(cfg)
	titles := map[metricKind]string{
		metricTime: "Execution Time w.r.t. K, 3 Indices",
		metricHeap: "Peak Heap Size w.r.t. K, 3 Indices",
		metricDisk: "Disk Access w.r.t. K, 3 Indices",
	}
	metrics := map[metricKind]string{
		metricTime: "ms/query", metricHeap: "max heap entries", metricDisk: "block reads/query",
	}
	rep := &Report{ID: id, Title: titles[kind], XLabel: "k", Metric: metrics[kind]}
	var pe, sig2, sig3 Series
	pe.Name, sig2.Name, sig3.Name = "PE", "PE+2dSIG", "PE+3dSIG"
	fsFor := func(qi int) ranking.Func {
		rng := cfg.rng(int64(qi) * 41)
		return ranking.SqDist([]int{0, 1, 2}, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	for _, k := range []int{10, 20, 50, 100} {
		x := fmt.Sprintf("k=%d", k)
		add := func(s *Series, opts indexmerge.Options) {
			m := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
				if _, err := indexmerge.TopK(env.idx, fsFor(qi), k, opts, ctr); err != nil {
					must(err)
				}
			})
			var v float64
			switch kind {
			case metricTime:
				v = m.ms()
			case metricHeap:
				v = float64(m.counters.PeakHeap)
			case metricDisk:
				v = m.avgReads()
			}
			s.Points = append(s.Points, Point{X: x, Value: v})
		}
		add(&pe, indexmerge.Options{})
		add(&sig2, indexmerge.Options{Pruner: env.pairs})
		add(&sig3, indexmerge.Options{Pruner: env.sig3})
	}
	rep.Series = []Series{pe, sig2, sig3}
	return rep
}

// fig5_18: partial attributes in ranking: the function references only a
// subset of the indexed dimensions.
func fig5_18(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(1_000_000), 1, 4, 2, table.Uniform, cfg.Seed)
	dom := ranking.UnitBox(4)
	idx := []hindex.Index{
		rtree.Bulk(tb, []int{0, 1}, dom, rtree.Config{}),
		rtree.Bulk(tb, []int{2, 3}, dom, rtree.Config{}),
	}
	rep := &Report{ID: "fig5.18", Title: "Partial Attributes in Ranking",
		XLabel: "attrs in f", Metric: "ms/query"}
	var pe Series
	pe.Name = "PE"
	for _, nattr := range []int{1, 2, 3, 4} {
		attrs := make([]int, nattr)
		for i := range attrs {
			attrs[i] = i
		}
		m := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			rng := cfg.rng(int64(qi)*53 + int64(nattr))
			target := make([]float64, nattr)
			for i := range target {
				target[i] = rng.Float64()
			}
			f := ranking.SqDist(attrs, target)
			if _, err := indexmerge.TopK(idx, f, 100, indexmerge.Options{}, ctr); err != nil {
				must(err)
			}
		})
		pe.Points = append(pe.Points, Point{X: fmt.Sprintf("r=%d", nattr), Value: m.ms()})
	}
	rep.Series = []Series{pe}
	return rep
}

// fig5_19: execution time w.r.t. index node (page) size.
func fig5_19(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(1_000_000), 1, 2, 2, table.Uniform, cfg.Seed)
	dom := ranking.UnitBox(2)
	rep := &Report{ID: "fig5.19", Title: "Execution Time w.r.t. Node Size",
		XLabel: "page bytes", Metric: "ms/query"}
	var pe Series
	pe.Name = "PE"
	for _, page := range []int{1024, 2048, 4096, 8192, 16384} {
		idx := []hindex.Index{
			btree.Build(tb, 0, dom, btree.Config{PageSize: page}),
			btree.Build(tb, 1, dom, btree.Config{PageSize: page}),
		}
		m := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			f := ch5Func(cfg, "fs", qi)
			if _, err := indexmerge.TopK(idx, f, 100, indexmerge.Options{}, ctr); err != nil {
				must(err)
			}
		})
		pe.Points = append(pe.Points, Point{X: fmt.Sprintf("%dB", page), Value: m.ms()})
	}
	rep.Series = []Series{pe}
	return rep
}

// fig5_20: execution time w.r.t. T.
func fig5_20(cfg Config) *Report {
	rep := &Report{ID: "fig5.20", Title: "Execution Time w.r.t. T",
		XLabel: "T (thesis rows)", Metric: "ms/query"}
	var pe, sig Series
	pe.Name, sig.Name = "PE", "PE+SIG"
	for _, millions := range []int{1, 2, 5, 10} {
		env := newCh5Env(Config{Scale: cfg.Scale, Queries: cfg.Queries, Seed: cfg.Seed}, millions*1_000_000)
		x := fmt.Sprintf("%dM", millions)
		pe.Points = append(pe.Points, Point{X: x, Value: env.measure(cfg, "fs", 100, indexmerge.Options{}).ms()})
		sig.Points = append(sig.Points, Point{X: x,
			Value: env.measure(cfg, "fs", 100, indexmerge.Options{Pruner: env.js}).ms()})
	}
	rep.Series = []Series{pe, sig}
	return rep
}

// fig5_21: join-signature construction time w.r.t. T.
func fig5_21(cfg Config) *Report {
	rep := &Report{ID: "fig5.21", Title: "Construction Time w.r.t. T",
		XLabel: "T (thesis rows)", Metric: "ms"}
	var s Series
	s.Name = "join-signature"
	for _, millions := range []int{1, 2, 5, 10} {
		tb := dataset.Synthetic(cfg.T(millions*1_000_000), 1, 2, 2, table.Uniform, cfg.Seed)
		dom := ranking.UnitBox(2)
		idx := []hindex.Index{
			btree.Build(tb, 0, dom, btree.Config{}),
			btree.Build(tb, 1, dom, btree.Config{}),
		}
		start := time.Now()
		if _, err := indexmerge.BuildJoinSignature(idx, tb.Len(), indexmerge.JoinSigConfig{}); err != nil {
			must(err)
		}
		s.Points = append(s.Points, Point{X: fmt.Sprintf("%dM", millions), Value: ms(time.Since(start))})
	}
	rep.Series = []Series{s}
	return rep
}

// fig5_22: join-signature size w.r.t. T.
func fig5_22(cfg Config) *Report {
	rep := &Report{ID: "fig5.22", Title: "Size of Join-signatures w.r.t. T",
		XLabel: "T (thesis rows)", Metric: "MB"}
	var s Series
	s.Name = "join-signature"
	for _, millions := range []int{1, 2, 5, 10} {
		tb := dataset.Synthetic(cfg.T(millions*1_000_000), 1, 2, 2, table.Uniform, cfg.Seed)
		dom := ranking.UnitBox(2)
		idx := []hindex.Index{
			btree.Build(tb, 0, dom, btree.Config{}),
			btree.Build(tb, 1, dom, btree.Config{}),
		}
		js, err := indexmerge.BuildJoinSignature(idx, tb.Len(), indexmerge.JoinSigConfig{})
		must(err)
		s.Points = append(s.Points, Point{X: fmt.Sprintf("%dM", millions),
			Value: float64(js.SizeBytes()) / (1 << 20)})
	}
	rep.Series = []Series{s}
	return rep
}
