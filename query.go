package rankcube

// The public query API. Every engine exposes one Query-shaped entry point
// taking a context and variadic Options. All entry points funnel through
// runQuery, the single boundary that attaches tracing, enforces the
// budget, applies the degradation policy, records the query into the
// process-wide metrics registry, and feeds the slow-query log. Every
// top-k exact-scan fallback and baseline is baselines.ScanTopK.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rankcube/internal/baselines"
	"rankcube/internal/errs"
	"rankcube/internal/governor"
	"rankcube/internal/gridcube"
	"rankcube/internal/guard"
	"rankcube/internal/indexmerge"
	"rankcube/internal/joinquery"
	"rankcube/internal/obs"
	"rankcube/internal/sigcube"
	"rankcube/internal/skyline"
)

// Option configures one query. Options compose left to right:
//
//	cube.Query(ctx, cond, f, k, rankcube.WithBudget(b), rankcube.WithMetrics(m))
type Option func(*queryConfig)

// queryConfig is the resolved per-query configuration.
type queryConfig struct {
	budget  Budget
	metrics *Metrics
	trace   *Trace
	slowNS  int64 // -1 = inherit DefaultSlowLog's threshold

	// ctls are the serving controls of every structure the operation
	// touches, set by the entry point (not an Option): queries are admitted
	// through each control's gate and hold each control shared for the
	// whole operation, fallback included; maintenance (write=true) holds
	// them exclusive and bypasses admission — the exclusive lock already
	// serializes it, and shedding maintenance would lose data, not load.
	ctls  []*guard.RW
	write bool
}

// applyOptions folds opts into a config. Nil options are ignored.
func applyOptions(opts []Option) queryConfig {
	cfg := queryConfig{slowNS: -1}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithBudget bounds the query's resource consumption and degradation
// policy (see Budget).
func WithBudget(b Budget) Option {
	return func(c *queryConfig) { c.budget = b }
}

// WithMetrics collects the query's execution statistics into m. Without
// it the query runs against a throwaway collector.
func WithMetrics(m *Metrics) Option {
	return func(c *queryConfig) { c.metrics = m }
}

// WithTrace records the query's execution as a span tree on tr: every
// engine phase becomes a span, and every governed block read, retry,
// heap observation, and downgrade is attributed to the innermost open
// span. Render the result with tr.Render(). The per-span read totals sum
// exactly to the reads the query charged its Metrics.
func WithTrace(tr *Trace) Option {
	return func(c *queryConfig) { c.trace = tr }
}

// WithSlowLogThreshold overrides the process-wide slow-query threshold
// (SetSlowQueryThreshold) for this query only. Zero disables slow
// logging for the query; a positive d admits it into the slow-query log
// when its wall time reaches d.
func WithSlowLogThreshold(d time.Duration) Option {
	return func(c *queryConfig) {
		if d < 0 {
			d = 0
		}
		c.slowNS = int64(d)
	}
}

// classifyOutcome maps a query's final state onto the registry's
// outcome breakdown.
func classifyOutcome(err error, degraded bool) obs.Outcome {
	switch {
	case err == nil && degraded:
		return obs.OutcomeDegraded
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, errs.ErrCanceled):
		return obs.OutcomeCanceled
	case errors.Is(err, errs.ErrBudgetExceeded):
		return obs.OutcomeBudget
	case errors.Is(err, errs.ErrOverloaded):
		return obs.OutcomeOverloaded
	default:
		return obs.OutcomeError
	}
}

// readsDelta diffs two read snapshots, yielding what one query charged.
func readsDelta(before, after map[Structure]int64) map[Structure]int64 {
	delta := make(map[Structure]int64, len(after))
	for s, v := range after {
		if d := v - before[s]; d > 0 {
			delta[s] = d
		}
	}
	return delta
}

// runQuery is the one boundary every canonical entry point passes
// through. It resolves options, attaches the trace (creating a private
// one when only the slow log needs it), runs attempt under the budget's
// governor, degrades to fallback per the Budget policy, seals the trace,
// records the query into the default registry, and admits offenders into
// the slow-query log. fallback may be nil for operations that never
// degrade (maintenance, baselines).
func runQuery[T any](ctx context.Context, kind string, cfg queryConfig,
	attempt func(m *Metrics) (T, error),
	fallback func(m *Metrics) (T, error),
) (T, error) {
	// Admission and locking come first: a shed query must cost nothing but
	// its rejection, and the locks must span the attempt and the fallback
	// alike so a degraded answer reads the same consistent structures.
	if len(cfg.ctls) > 0 {
		if cfg.write {
			defer guard.LockExclusive(cfg.ctls)()
		} else {
			release, err := guard.AcquireShared(ctx, cfg.ctls)
			if err != nil {
				obs.Default().RecordQuery(kind, classifyOutcome(err, false), 0, nil, 0, 0)
				var zero T
				return zero, err
			}
			defer release()
		}
	}

	m := ensureMetrics(cfg.metrics)

	slowThreshold := obs.DefaultSlowLog().Threshold()
	if cfg.slowNS >= 0 {
		slowThreshold = time.Duration(cfg.slowNS)
	}
	tr := cfg.trace
	if tr == nil && slowThreshold > 0 {
		tr = obs.NewTrace() // private trace so the slow log can dump a tree
	}
	if tr != nil {
		m.SetObserver(tr)
		defer m.DetachObserver(tr)
		ctx = obs.ContextWithTrace(ctx, tr)
	}

	readsBefore := m.ReadsSnapshot()
	retriesBefore, downgradesBefore := m.Retries, m.Downgrades
	start := time.Now()

	endRoot := m.StartSpan(kind)
	out, err := runGoverned(ctx, cfg.budget.limits(), m, func() (T, error) {
		return attempt(m)
	})
	degraded := false
	if fallback != nil && cfg.budget.shouldDegrade(err) {
		degraded = true
		endFallback := m.StartSpan("fallback")
		m.AddDowngrade()
		out, err = runGoverned(ctx, governor.Limits{}, m, func() (T, error) {
			return fallback(m)
		})
		endFallback()
	}
	endRoot()
	if tr != nil {
		tr.Finish()
	}

	dur := time.Since(start)
	outcome := classifyOutcome(err, degraded)
	obs.Default().RecordQuery(kind, outcome, dur,
		readsDelta(readsBefore, m.ReadsSnapshot()),
		m.Retries-retriesBefore, m.Downgrades-downgradesBefore)

	if slowThreshold > 0 && dur >= slowThreshold {
		var errText string
		if err != nil {
			errText = err.Error()
		}
		var tree string
		if tr != nil {
			tree = tr.Render()
		}
		obs.DefaultSlowLog().Record(obs.SlowEntry{
			At: time.Now(), Kind: kind, Dur: dur,
			Outcome: outcome, Err: errText, Tree: tree,
		})
		obs.Default().RecordSlowQuery()
	}
	return out, err
}

// ---------------------------------------------------------------------------
// Canonical entry points
// ---------------------------------------------------------------------------

// Query answers a multi-dimensional top-k query under ctx. On storage
// faults (and, with Budget.FallbackOnBudget, budget trips) it
// transparently re-answers from a tombstone-aware sequential scan,
// recording the downgrade.
func (g *GridCube) Query(ctx context.Context, cond Cond, f Func, k int, opts ...Option) ([]Result, error) {
	cfg := applyOptions(opts)
	cfg.ctls = []*guard.RW{g.c.Ctl()}
	q := gridcube.Query{Cond: cond, F: f, K: k}
	return runQuery(ctx, "grid.topk", cfg,
		func(m *Metrics) ([]Result, error) { return g.c.TopK(q, m) },
		func(m *Metrics) ([]Result, error) { return g.scan(cond, f, k, m), nil })
}

// BaselineQuery answers the same query as Query by the cube's governed,
// tombstone-aware sequential scan — the exact floor the degradation policy
// falls back to, exposed so callers (and the chaos harness) can crosscheck
// cube answers against ground truth under the same admission gate and
// shared lock. It never degrades further.
func (g *GridCube) BaselineQuery(ctx context.Context, cond Cond, f Func, k int, opts ...Option) ([]Result, error) {
	cfg := applyOptions(opts)
	cfg.ctls = []*guard.RW{g.c.Ctl()}
	return runQuery(ctx, "grid.baseline", cfg,
		func(m *Metrics) ([]Result, error) { return g.scan(cond, f, k, m), nil },
		nil)
}

// scan is the grid cube's exact floor: a sequential scan of the base
// relation that skips tombstoned tuples and touches no cube store.
func (g *GridCube) scan(cond Cond, f Func, k int, m *Metrics) []Result {
	return baselines.ScanTopK(g.c.Table(), g.c.Alive, cond, f, k, m)
}

// Query answers a multi-dimensional top-k query under ctx, degrading to
// a delete-aware sequential scan on storage faults as GridCube.Query
// does.
func (s *SignatureCube) Query(ctx context.Context, cond Cond, f Func, k int, opts ...Option) ([]Result, error) {
	cfg := applyOptions(opts)
	cfg.ctls = []*guard.RW{s.c.Ctl()}
	return runQuery(ctx, "sig.topk", cfg,
		func(m *Metrics) ([]Result, error) { return s.c.TopK(cond, f, k, m) },
		func(m *Metrics) ([]Result, error) { return s.scan(cond, f, k, m), nil })
}

// BaselineQuery answers the same query as Query by the cube's governed,
// delete-aware sequential scan — ground truth for crosschecking, under the
// same admission gate and shared lock. It never degrades further.
func (s *SignatureCube) BaselineQuery(ctx context.Context, cond Cond, f Func, k int, opts ...Option) ([]Result, error) {
	cfg := applyOptions(opts)
	cfg.ctls = []*guard.RW{s.c.Ctl()}
	return runQuery(ctx, "sig.baseline", cfg,
		func(m *Metrics) ([]Result, error) { return s.scan(cond, f, k, m), nil },
		nil)
}

// scan is the signature cube's exact floor: a sequential scan of the base
// relation that skips deleted tuples and touches no cube store.
func (s *SignatureCube) scan(cond Cond, f Func, k int, m *Metrics) []Result {
	return baselines.ScanTopK(s.c.Table(), s.c.Alive, cond, f, k, m)
}

// InsertTuple appends a tuple and incrementally maintains all signatures
// under ctx. Maintenance never degrades — there is no baseline that
// could maintain the cube — so faults surface as typed errors:
// ErrStructureUnavailable when the partition does not support
// incremental maintenance, storage errors when maintenance I/O faults.
func (s *SignatureCube) InsertTuple(ctx context.Context, sel []int32, rank []float64, opts ...Option) (TID, error) {
	cfg := applyOptions(opts)
	cfg.ctls = []*guard.RW{s.c.Ctl()}
	cfg.write = true
	return runQuery(ctx, "sig.insert", cfg,
		func(m *Metrics) (TID, error) { return s.c.Insert(sel, rank, m), nil },
		nil)
}

// DeleteTuple removes a tuple from the partition and signatures under
// ctx, with the same no-degradation error contract as InsertTuple.
func (s *SignatureCube) DeleteTuple(ctx context.Context, tid TID, opts ...Option) (bool, error) {
	cfg := applyOptions(opts)
	cfg.ctls = []*guard.RW{s.c.Ctl()}
	cfg.write = true
	return runQuery(ctx, "sig.delete", cfg,
		func(m *Metrics) (bool, error) { return s.c.Delete(tid, m), nil },
		nil)
}

// OpenScan opens a governed, panic-contained score-ascending iterator
// over tuples matching cond — the rank-aware selection operator rank
// joins pull from. Unlike the batch entry points a stream cannot
// transparently degrade (it cannot restart without re-emitting), so
// faults surface as typed errors from Next. The budget's governor — and
// the trace, when WithTrace is given — stay attached to the metrics for
// the scanner's lifetime; Close releases both, so open a fresh Metrics
// per scan when running scans concurrently.
func (s *SignatureCube) OpenScan(ctx context.Context, cond Cond, f Func, opts ...Option) (*GovernedScanner, error) {
	cfg := applyOptions(opts)
	// The scanner reads the cube progressively until Close, so it is
	// admitted through the gate and holds the shared lock for its whole
	// lifetime — maintenance waits for open scans to finish. Close releases
	// both.
	unlock, err := guard.AcquireShared(ctx, []*guard.RW{s.c.Ctl()})
	if err != nil {
		obs.Default().Counter("queries.sig.scan." + string(classifyOutcome(err, false))).Add(1)
		return nil, err
	}
	m := ensureMetrics(cfg.metrics)
	if cfg.trace != nil {
		m.SetObserver(cfg.trace)
	}
	gov := governor.New(ctx, cfg.budget.limits())
	m.SetGovernor(gov)
	sc, err := func() (sc *sigcube.Scanner, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = errs.FromPanic(r)
				sc = nil
			}
		}()
		return s.c.Scan(cond, f, m)
	}()
	if err != nil {
		m.DetachGovernor(gov)
		if cfg.trace != nil {
			m.DetachObserver(cfg.trace)
		}
		unlock()
		obs.Default().Counter("queries.sig.scan." + string(classifyOutcome(err, false))).Add(1)
		return nil, err
	}
	obs.Default().Counter("queries.sig.scan.ok").Add(1)
	return &GovernedScanner{s: sc, m: m, g: gov, tr: cfg.trace, unlock: unlock}, nil
}

// MergeQuery answers a top-k query whose function spans several
// hierarchical indices by progressive index-merge (chapter 5). rel
// provides the tuple count for join-signature construction when
// requested. Configuration errors (no indices, uncovered ranking
// dimensions) surface directly; runtime storage faults degrade to a full
// table scan, which is exact because index-merge queries carry no
// boolean predicate.
func MergeQuery(ctx context.Context, rel *Relation, indices []Index, f Func, k int, mopts MergeOptions, opts ...Option) ([]Result, error) {
	cfg := applyOptions(opts)
	return runQuery(ctx, "merge.topk", cfg,
		func(m *Metrics) ([]Result, error) {
			var mo indexmerge.Options
			if mopts.JoinSignature {
				endBuild := m.StartSpan("joinsig-build")
				js, jerr := indexmerge.BuildJoinSignature(indices, rel.Len(), indexmerge.JoinSigConfig{})
				endBuild()
				if jerr != nil {
					return nil, jerr
				}
				mo.Pruner = js
			}
			return indexmerge.TopK(indices, f, k, mo, m)
		},
		func(m *Metrics) ([]Result, error) { return baselines.ScanTopK(rel, nil, nil, f, k, m), nil })
}

// JoinQuery answers a multi-relational top-k query under ctx: equality
// join on the shared key domain, per-relation boolean conditions,
// combined score = sum of per-relation scores. When a member relation's
// cube faults mid-join, the query degrades to an exact brute-force hash
// join over sequential scans of the participating relations.
func JoinQuery(ctx context.Context, parts []JoinPart, k int, opts ...Option) ([]JoinResult, error) {
	cfg := applyOptions(opts)
	// A join spans several cubes; their controls are acquired in the
	// process-wide ascending-ID order (guard.Order) so two joins over
	// overlapping relation sets can never deadlock against a waiting
	// writer.
	for _, p := range parts {
		if p.Rel != nil && p.Rel.Cube != nil {
			cfg.ctls = append(cfg.ctls, p.Rel.Cube.Ctl())
		}
	}
	q := joinquery.Query{Parts: parts, K: k}
	return runQuery(ctx, "join.topk", cfg,
		func(m *Metrics) ([]JoinResult, error) { return joinquery.Execute(q, joinquery.Options{}, m) },
		func(m *Metrics) ([]JoinResult, error) { return joinquery.BruteForce(q, m) })
}

// skyOut bundles the skyline result pair through runQuery.
type skyOut struct {
	res  []SkylineResult
	snap *SkylineSnapshot
}

// Query computes the skyline of the tuples matching cond under ctx,
// minimizing the given ranking dimensions. A non-nil target asks for the
// dynamic skyline in |x−target| space. On storage faults it degrades to
// an exact sequential-scan skyline; the returned snapshot is then marked
// degraded and navigation (drill-down/roll-up) restarts from scratch
// instead of reusing the candidate basis.
func (s *SkylineEngine) Query(ctx context.Context, cond Cond, dims []int, target []float64, opts ...Option) ([]SkylineResult, *SkylineSnapshot, error) {
	cfg := applyOptions(opts)
	cfg.ctls = []*guard.RW{s.e.Cube().Ctl()}
	q := skyline.Query{Cond: cond, Dims: dims, Target: target}
	out, err := runQuery(ctx, "skyline", cfg,
		func(m *Metrics) (skyOut, error) {
			res, snap, err := s.e.Skyline(q, m)
			return skyOut{res, snap}, err
		},
		func(m *Metrics) (skyOut, error) {
			res, snap, err := s.e.ScanSkyline(q, m)
			return skyOut{res, snap}, err
		})
	return out.res, out.snap, err
}

// DrillDownQuery tightens the previous query with extra predicates,
// reusing its candidate basis, with the same degradation policy as
// Query (the fallback answers the tightened query by sequential scan).
func (s *SkylineEngine) DrillDownQuery(ctx context.Context, prev *SkylineSnapshot, extra Cond, opts ...Option) ([]SkylineResult, *SkylineSnapshot, error) {
	if prev == nil {
		return nil, nil, fmt.Errorf("rankcube: drill-down requires a previous snapshot: %w", errs.ErrInvalidArgument)
	}
	cfg := applyOptions(opts)
	cfg.ctls = []*guard.RW{s.e.Cube().Ctl()}
	out, err := runQuery(ctx, "skyline.drilldown", cfg,
		func(m *Metrics) (skyOut, error) {
			res, snap, err := s.e.DrillDown(prev, extra, m)
			return skyOut{res, snap}, err
		},
		func(m *Metrics) (skyOut, error) {
			q, qerr := prev.DrillQuery(extra)
			if qerr != nil {
				return skyOut{}, qerr
			}
			res, snap, err := s.e.ScanSkyline(q, m)
			return skyOut{res, snap}, err
		})
	return out.res, out.snap, err
}

// RollUpQuery relaxes the previous query by removing predicates on the
// given dimensions, seeding the search with the previous skyline, with
// the same degradation policy as Query.
func (s *SkylineEngine) RollUpQuery(ctx context.Context, prev *SkylineSnapshot, removeDims []int, opts ...Option) ([]SkylineResult, *SkylineSnapshot, error) {
	if prev == nil {
		return nil, nil, fmt.Errorf("rankcube: roll-up requires a previous snapshot: %w", errs.ErrInvalidArgument)
	}
	cfg := applyOptions(opts)
	cfg.ctls = []*guard.RW{s.e.Cube().Ctl()}
	out, err := runQuery(ctx, "skyline.rollup", cfg,
		func(m *Metrics) (skyOut, error) {
			res, snap, err := s.e.RollUp(prev, removeDims, m)
			return skyOut{res, snap}, err
		},
		func(m *Metrics) (skyOut, error) {
			res, snap, err := s.e.ScanSkyline(prev.RollQuery(removeDims), m)
			return skyOut{res, snap}, err
		})
	return out.res, out.snap, err
}

// TableScanQuery answers a query by a governed scan of rel — the
// thesis' baseline, and the same path the degradation policy falls back
// to. It never degrades further (the scan is already the floor), so
// budget trips and faults surface as typed errors.
func TableScanQuery(ctx context.Context, rel *Relation, cond Cond, f Func, k int, opts ...Option) ([]Result, error) {
	cfg := applyOptions(opts)
	return runQuery(ctx, "scan.topk", cfg,
		func(m *Metrics) ([]Result, error) { return baselines.ScanTopK(rel, nil, cond, f, k, m), nil },
		nil)
}
