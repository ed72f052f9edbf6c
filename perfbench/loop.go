package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rankcube"
)

// answerer is the query surface the correctness gate and the clients use.
type answerer interface {
	Query(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int, opts ...rankcube.Option) ([]rankcube.Result, error)
	BaselineQuery(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int, opts ...rankcube.Option) ([]rankcube.Result, error)
}

// target is a workload's cube, seen through the public API only.
type target struct {
	answerer
	size   func() int64
	stores func() []*rankcube.PageStore
	insert func(ctx context.Context, sel []int32, rank []float64, opts ...rankcube.Option) (rankcube.TID, error)
	remove func(ctx context.Context, tid rankcube.TID, opts ...rankcube.Option) (bool, error)
}

// setUp loads the relation and builds the workload's cube, with admission
// installed at MaxInFlight = clients so its fast path runs on every query.
func setUp(w workload) (*target, error) {
	rel, err := buildRelation(w.rows, w.zipf)
	if err != nil {
		return nil, fmt.Errorf("load relation: %w", err)
	}
	adm := rankcube.AdmissionConfig{MaxInFlight: clients, MaxWaiting: clients, Name: "bench"}
	t := &target{}
	switch w.engine {
	case gridEngine:
		c := rankcube.BuildGridCube(rel, rankcube.GridOptions{})
		c.SetAdmission(adm)
		t.answerer, t.size, t.stores = c, c.SizeBytes, c.Stores
		// Grid maintenance takes no context or options: it is not traced.
		t.insert = func(_ context.Context, sel []int32, rank []float64, _ ...rankcube.Option) (rankcube.TID, error) {
			return c.Insert(sel, rank), nil
		}
		t.remove = func(_ context.Context, tid rankcube.TID, _ ...rankcube.Option) (bool, error) {
			return c.Delete(tid), nil
		}
	default:
		c := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
		c.SetAdmission(adm)
		t.answerer, t.size, t.stores = c, c.SizeBytes, c.Stores
		t.insert, t.remove = c.InsertTuple, c.DeleteTuple
	}
	return t, nil
}

func (t *target) pages() int64 {
	var n int64
	for _, s := range t.stores() {
		n += int64(s.NumPages())
	}
	return n
}

// structures are the pager structures the engines charge per query.
var structures = [...]rankcube.Structure{
	rankcube.StructRTree, rankcube.StructSignature, rankcube.StructCube, rankcube.StructBlockTab,
}

// record is what one op left behind.
type record struct {
	idx    int64
	kind   opKind
	pair   int64 // keys an insert and the delete of its tuple
	traced bool
	err    error
	client time.Duration // the benchmark's span around the public call

	reads               [len(structures)]int64
	examined, generated int64
	pruned              int64
	peakHeap            int

	// From the trace, when the phase is traced and the call takes one.
	hasRoot              bool
	root, rootSelf       time.Duration
	tester, search       time.Duration
	hasTester, hasSearch bool
}

func (r *record) wait() time.Duration { return max(0, r.client-r.root) }

// pairs hands each insert's tuple id to the delete that removes it.
type pairs struct {
	mu   sync.Mutex
	cond *sync.Cond
	tids map[int64]rankcube.TID
	bad  map[int64]bool
}

func newPairs() *pairs {
	p := &pairs{tids: map[int64]rankcube.TID{}, bad: map[int64]bool{}}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pairs) put(key int64, tid rankcube.TID, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok {
		p.tids[key] = tid
	} else {
		p.bad[key] = true
	}
	p.cond.Broadcast()
}

// take waits for the insert keyed key; it always comes earlier in the op
// list, so some client has pulled it and will finish it.
func (p *pairs) take(key int64) (rankcube.TID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if tid, ok := p.tids[key]; ok {
			delete(p.tids, key)
			return tid, true
		}
		if p.bad[key] {
			return 0, false
		}
		p.cond.Wait()
	}
}

var errInsertFailed = errors.New("the insert this delete removes failed")

// do runs one op through the public API, tracing it when traced, and logs
// its spans to sp when sp is not nil.
func (t *target) do(ctx context.Context, o op, traced bool, pr *pairs, sp *spanLog) record {
	rec := record{kind: o.kind, pair: o.pair}
	m := rankcube.NewMetrics()
	opts := []rankcube.Option{rankcube.WithMetrics(m)}
	var tr *rankcube.Trace
	if traced {
		tr = rankcube.NewTrace()
		opts = append(opts, rankcube.WithTrace(tr))
	}
	var start time.Time
	switch o.kind {
	case opQuery:
		f := o.fn()
		start = time.Now()
		_, rec.err = t.Query(ctx, o.cond, f, o.k, opts...)
		rec.client = time.Since(start)
	case opInsert:
		start = time.Now()
		tid, err := t.insert(ctx, o.sel, o.rank, opts...)
		rec.client = time.Since(start)
		rec.err = err
		pr.put(o.pair, tid, err == nil)
	case opDelete:
		tid, ok := pr.take(o.pair)
		if !ok {
			rec.err = errInsertFailed
			return rec
		}
		start = time.Now()
		found, err := t.remove(ctx, tid, opts...)
		rec.client = time.Since(start)
		rec.err = err
		if err == nil && !found {
			rec.err = fmt.Errorf("delete of live tuple %d found nothing", tid)
		}
	}
	for i, s := range structures {
		rec.reads[i] = m.Reads(s)
	}
	rec.examined, rec.generated, rec.pruned, rec.peakHeap = m.StatesExamined, m.StatesGenerated, m.Pruned, m.PeakHeap
	if tr != nil && tr.Root() != nil {
		root := tr.Root()
		rec.hasRoot, rec.root = true, root.Dur
		rec.rootSelf = selfTime(root)
		for _, c := range root.Children {
			switch c.Name {
			case "tester", "plan":
				rec.tester, rec.hasTester = rec.tester+c.Dur, true
			case "search":
				rec.search, rec.hasSearch = rec.search+c.Dur, true
			}
		}
	}
	if sp != nil {
		sp.add(o.kind, start, rec.client, tr)
	}
	return rec
}

// traceBlock is the length of the query-shape cycle. A traced phase traces
// every other block of traceBlock ops, so its traced and untraced ops have
// the same shapes and run interleaved in time.
const traceBlock = 6

// phase runs one stretch of an op list with a closed loop of workers.
type phase struct {
	ops     opList
	workers int
	traced  bool // trace alternate blocks of traceBlock ops
	dur     time.Duration
	// minOps ops always run, whatever dur says; maxOps > 0 caps the phase.
	minOps, maxOps int64
	// The phase also runs until it has these many samples of each kind, of
	// traced ops and of untraced ones.
	minQueries, minMaint int64
	// afterPrefix, when set, runs once the first minOps ops have finished
	// and before any later op starts.
	afterPrefix func()
	// collect forces a collection before each op, outside its timing.
	collect bool
	// cal, when set, takes host-speed samples through the phase. By
	// default it pauses the workers every calEvery, and the paused time is
	// not part of elapsed. A one-worker phase with chunks > 0 instead runs
	// its maxOps ops in that many chunks and samples before each chunk and
	// after the last, so that the samples bracket ops too short to span a
	// calEvery.
	cal    *calibrator
	chunks int64
}

type phaseResult struct {
	recs    []record // in op-list order; recs[:minOps] is the fixed prefix
	elapsed time.Duration
}

func (t *target) run(ctx context.Context, p phase, sp *spanLog) phaseResult {
	var next atomic.Int64
	var queries, maint [2]atomic.Int64 // by traced
	pr := newPairs()
	start := time.Now()
	deadline := start.Add(p.dur)
	enough := func(c *[2]atomic.Int64, want int64) bool {
		return c[0].Load() >= want && (!p.traced || c[1].Load() >= want)
	}
	done := func() bool {
		return time.Now().After(deadline) && next.Load() >= p.minOps &&
			enough(&queries, p.minQueries) && enough(&maint, p.minMaint)
	}
	var prefix sync.WaitGroup
	gate := make(chan struct{})
	if p.afterPrefix != nil {
		prefix.Add(int(p.minOps))
	}
	var held0 time.Duration
	stopCal, calDone := make(chan struct{}), make(chan struct{})
	if p.cal != nil && p.chunks == 0 {
		held0 = p.cal.heldFor()
		go func() {
			defer close(calDone)
			p.cal.every(stopCal)
		}()
	} else {
		close(calDone)
	}
	// An op is pulled and run, and the end of the phase is checked, under
	// the pause gate: so a pause never holds an op that another op waits
	// for, and once the workers have left every pause that held them is
	// counted in heldFor.
	enter, leave := func() {}, func() {}
	if p.cal != nil && p.chunks == 0 {
		enter, leave = p.cal.gate.RLock, p.cal.gate.RUnlock
	}
	out := make([][]record, p.workers)
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				enter()
				if ctx.Err() != nil || done() {
					leave()
					return
				}
				i := next.Add(1) - 1
				if p.maxOps > 0 && i >= p.maxOps {
					leave()
					return
				}
				if p.afterPrefix != nil {
					// Ops are pulled in order, so op minOps is pulled after
					// every op of the prefix and before any later op.
					switch {
					case i == p.minOps:
						prefix.Wait()
						p.afterPrefix()
						close(gate)
					case i > p.minOps:
						<-gate
					}
				}
				if p.chunks > 0 && i%(p.maxOps/p.chunks) == 0 {
					p.cal.sample()
				}
				traced := p.traced && (i/traceBlock)%2 == 1
				var log *spanLog // spans are kept for the fixed prefix only
				if traced && i < p.minOps {
					log = sp
				}
				if p.collect {
					runtime.GC()
				}
				rec := t.do(ctx, p.ops.at(i), traced, pr, log)
				leave()
				rec.idx, rec.traced = i, traced
				out[w] = append(out[w], rec)
				if p.afterPrefix != nil && i < p.minOps {
					prefix.Done()
				}
				c := &maint
				if rec.kind == opQuery {
					c = &queries
				}
				if traced {
					c[1].Add(1)
				} else {
					c[0].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if p.afterPrefix != nil && next.Load() <= p.minOps {
		// The phase ended with its prefix: no op came after it.
		p.afterPrefix()
	}
	if p.cal != nil && p.chunks == 0 {
		elapsed -= p.cal.heldFor() - held0
	}
	close(stopCal)
	<-calDone
	if p.chunks > 0 {
		p.cal.sample()
	}
	res := phaseResult{recs: slices.Concat(out...), elapsed: elapsed}
	slices.SortFunc(res.recs, func(a, b record) int { return cmp.Compare(a.idx, b.idx) })
	return res
}
