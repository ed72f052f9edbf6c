package bench

import (
	"fmt"
	"time"

	"rankcube/internal/baselines"
	"rankcube/internal/core"
	"rankcube/internal/dataset"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

func init() {
	register("fig4.8", fig4_8)
	register("fig4.9", fig4_9)
	register("fig4.10", fig4_10)
	register("fig4.11", fig4_11)
	register("fig4.12", fig4_12)
	register("fig4.13", fig4_13)
}

// ch4Data is the default §4.4.1 synthetic configuration: Db = Dp = 3,
// C = 100, uniform.
func ch4Data(cfg Config, thesisRows int) *table.Table {
	return dataset.Synthetic(cfg.T(thesisRows), 3, 3, 100, table.Uniform, cfg.Seed)
}

// fig4_8: construction time w.r.t. T for the signature cube (P-Cube), the
// R-tree partition, and the baseline's B-tree indexes.
func fig4_8(cfg Config) *Report {
	rep := &Report{ID: "fig4.8", Title: "Construction Time w.r.t. T",
		XLabel: "T (thesis rows)", Metric: "ms"}
	var pc, rt, bt Series
	pc.Name, rt.Name, bt.Name = "P-Cube", "R-tree", "B-tree"
	for _, millions := range []int{1, 5, 10} {
		tb := ch4Data(cfg, millions*1_000_000)
		x := fmt.Sprintf("%dM", millions)

		start := time.Now()
		tree := buildCh4Tree(tb)
		rt.Points = append(rt.Points, Point{X: x, Value: ms(time.Since(start))})

		start = time.Now()
		sigcube.BuildOnTree(tb, tree, sigcube.Config{})
		pc.Points = append(pc.Points, Point{X: x, Value: ms(time.Since(start))})

		start = time.Now()
		h := baselines.NewHeapFile(tb)
		baselines.NewBooleanFirst(h)
		bt.Points = append(bt.Points, Point{X: x, Value: ms(time.Since(start))})
	}
	rep.Series = []Series{pc, rt, bt}
	return rep
}

func buildCh4Tree(tb *table.Table) *rtree.Tree {
	r := tb.Schema().R()
	dims := make([]int, r)
	for i := range dims {
		dims[i] = i
	}
	lo := make([]float64, r)
	hi := make([]float64, r)
	for d := 0; d < r; d++ {
		lo[d], hi[d] = tb.RankDomain(d)
		if hi[d] <= lo[d] {
			hi[d] = lo[d] + 1
		}
	}
	return rtree.Bulk(tb, dims, ranking.NewBox(lo, hi), rtree.Config{})
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// fig4_9: materialized size w.r.t. T.
func fig4_9(cfg Config) *Report {
	rep := &Report{ID: "fig4.9", Title: "Materialized Size w.r.t. T",
		XLabel: "T (thesis rows)", Metric: "MB"}
	var pc, rt, bt Series
	pc.Name, rt.Name, bt.Name = "P-Cube", "R-tree", "B-tree"
	mb := func(v int64) float64 { return float64(v) / (1 << 20) }
	for _, millions := range []int{1, 5, 10} {
		tb := ch4Data(cfg, millions*1_000_000)
		x := fmt.Sprintf("%dM", millions)
		tree := buildCh4Tree(tb)
		cube := sigcube.BuildOnTree(tb, tree, sigcube.Config{})
		h := baselines.NewHeapFile(tb)
		bf := baselines.NewBooleanFirst(h)
		pc.Points = append(pc.Points, Point{X: x, Value: mb(cube.SizeBytes())})
		rt.Points = append(rt.Points, Point{X: x, Value: mb(tree.Store().Bytes())})
		bt.Points = append(bt.Points, Point{X: x, Value: mb(bf.IndexSizeBytes())})
	}
	rep.Series = []Series{pc, rt, bt}
	return rep
}

// fig4_10: signature size, baseline vs adaptive coding, w.r.t. boolean
// cardinality C.
func fig4_10(cfg Config) *Report {
	rep := &Report{ID: "fig4.10", Title: "Signature Compression w.r.t. C",
		XLabel: "cardinality", Metric: "MB"}
	var base, comp Series
	base.Name, comp.Name = "Baseline", "Compress"
	mb := func(v int64) float64 { return float64(v) / (1 << 20) }
	for _, c := range []int{10, 100, 1000} {
		tb := dataset.Synthetic(cfg.T(1_000_000), 3, 3, c, table.Uniform, cfg.Seed)
		tree := buildCh4Tree(tb)
		x := fmt.Sprintf("C=%d", c)
		bl := sigcube.BuildOnTree(tb, tree, sigcube.Config{BaselineCoding: true})
		base.Points = append(base.Points, Point{X: x, Value: mb(bl.SizeBytes())})
		ad := sigcube.BuildOnTree(tb, tree, sigcube.Config{})
		comp.Points = append(comp.Points, Point{X: x, Value: mb(ad.SizeBytes())})
	}
	rep.Series = []Series{base, comp}
	return rep
}

// fig4_11: incremental update cost w.r.t. number of inserted tuples, per
// base size.
func fig4_11(cfg Config) *Report {
	rep := &Report{ID: "fig4.11", Title: "Cost of Incremental Updates",
		XLabel: "inserted tuples", Metric: "ms (batch total)"}
	var allSeries []Series
	for _, millions := range []int{1, 5, 10} {
		tb := ch4Data(cfg, millions*1_000_000)
		cube := sigcube.Build(tb, sigcube.Config{})
		var s Series
		s.Name = fmt.Sprintf("%dM", millions)
		rng := cfg.rng(int64(millions))
		for _, batch := range []int{1, 10, 100} {
			start := time.Now()
			for i := 0; i < batch; i++ {
				sel := make([]int32, tb.Schema().S())
				for d := range sel {
					sel[d] = int32(rng.Intn(tb.Schema().SelCard[d]))
				}
				rank := make([]float64, tb.Schema().R())
				for d := range rank {
					rank[d] = rng.Float64()
				}
				cube.Insert(sel, rank, stats.New())
			}
			s.Points = append(s.Points, Point{X: fmt.Sprintf("%d", batch), Value: ms(time.Since(start))})
		}
		allSeries = append(allSeries, s)
	}
	rep.Series = allSeries
	return rep
}

// ch4Funcs are the three controlled query functions of §4.4.2.
func ch4Funcs(cfg Config, trial int) map[string]ranking.Func {
	rng := cfg.rng(int64(trial) * 13)
	linear := ranking.Linear([]int{0, 1, 2},
		[]float64{rng.Float64() + 0.1, rng.Float64() + 0.1, rng.Float64() + 0.1})
	distance := ranking.SqDist([]int{0, 1, 2},
		[]float64{rng.Float64(), rng.Float64(), rng.Float64()})
	general := ranking.General(ranking.Sqr(ranking.Sub(
		ranking.Scale(2, ranking.Var(0)),
		ranking.Add(ranking.Var(1), ranking.Var(2)))))
	return map[string]ranking.Func{"linear": linear, "distance": distance, "general": general}
}

// fig4_12: execution time w.r.t. k: Boolean vs Ranking vs Signature.
func fig4_12(cfg Config) *Report {
	tb := ch4Data(cfg, 1_000_000)
	tree := buildCh4Tree(tb)
	cube := sigcube.BuildOnTree(tb, tree, sigcube.Config{})
	h := baselines.NewHeapFile(tb)
	boolean := baselines.NewBooleanFirst(h)
	rankingFirst := baselines.NewRankingFirst(h, tree)

	rep := &Report{ID: "fig4.12", Title: "Execution Time w.r.t. k",
		XLabel: "k", Metric: "ms/query"}
	var bSer, rSer, sSer Series
	bSer.Name, rSer.Name, sSer.Name = "Boolean", "Ranking", "Signature"
	for _, k := range []int{10, 20, 50, 100} {
		rng := cfg.rng(int64(k))
		conds := make([]core.Cond, cfg.Queries)
		funcs := make([]ranking.Func, cfg.Queries)
		for i := range conds {
			conds[i] = core.Cond{rng.Intn(3): int32(rng.Intn(100))}
			funcs[i] = ch4Funcs(cfg, i)["linear"]
		}
		x := fmt.Sprintf("k=%d", k)
		mB := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			boolean.TopK(conds[qi], funcs[qi], k, ctr)
		})
		mR := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			rankingFirst.TopK(conds[qi], funcs[qi], k, ctr)
		})
		mS := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			if _, err := cube.TopK(conds[qi], funcs[qi], k, ctr); err != nil {
				must(err)
			}
		})
		bSer.Points = append(bSer.Points, Point{X: x, Value: mB.ms()})
		rSer.Points = append(rSer.Points, Point{X: x, Value: mR.ms()})
		sSer.Points = append(sSer.Points, Point{X: x, Value: mS.ms()})
	}
	rep.Series = []Series{bSer, rSer, sSer}
	return rep
}

// fig4_13: R-tree block accesses per function type (k = 100): Ranking vs
// Signature.
func fig4_13(cfg Config) *Report {
	tb := ch4Data(cfg, 1_000_000)
	tree := buildCh4Tree(tb)
	cube := sigcube.BuildOnTree(tb, tree, sigcube.Config{})
	h := baselines.NewHeapFile(tb)
	rankingFirst := baselines.NewRankingFirst(h, tree)

	rep := &Report{ID: "fig4.13", Title: "Disk Access w.r.t. Functions",
		XLabel: "function", Metric: "R-tree blocks/query"}
	var rSer, sSer Series
	rSer.Name, sSer.Name = "Ranking", "Signature"
	for _, fname := range []string{"linear", "distance", "general"} {
		rng := cfg.rng(int64(len(fname)))
		conds := make([]core.Cond, cfg.Queries)
		funcs := make([]ranking.Func, cfg.Queries)
		for i := range conds {
			conds[i] = core.Cond{rng.Intn(3): int32(rng.Intn(100))}
			funcs[i] = ch4Funcs(cfg, i)[fname]
		}
		mR := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			rankingFirst.TopK(conds[qi], funcs[qi], 100, ctr)
		})
		mS := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			if _, err := cube.TopK(conds[qi], funcs[qi], 100, ctr); err != nil {
				must(err)
			}
		})
		rSer.Points = append(rSer.Points, Point{X: fname, Value: mR.avgReads(stats.StructRTree)})
		sSer.Points = append(sSer.Points, Point{X: fname, Value: mS.avgReads(stats.StructRTree)})
	}
	rep.Series = []Series{rSer, sSer}
	return rep
}
