package main

import (
	"math"
	"math/rand/v2"

	"rankcube"
)

// Inputs: the relation and the op lists. An op list is indexable — op i is
// a pure function of (seed, list, i) — so both clients pull from one list,
// every run with a seed executes the same ops, and a list never runs out
// however fast the host is.
//
// The seed draws the queries and the mixed op list. The relation and the
// read-only workloads' maintenance probe are drawn from datasetSeed
// instead: they are the dataset, the same in every run, so that set-up and
// the probe measure the same work whatever the seed.

const (
	selDims  = 4
	selCard  = 20
	rankDims = 3
	zipfS    = 1.2
)

var topKs = [...]int{1, 10, 100}

const datasetSeed = 1

// list identifies one op list drawn from a seed.
type list uint64

const (
	listRelation list = iota + 1
	listWarm
	listTimed
	listGate
	listProbe
)

// rng returns the generator for element i of sub-stream sub of list l.
func rng(seed int64, l list, sub, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(l)<<56|sub<<48|i))
}

// zipfCDF[v] is P(value ≤ v) when P(v) ∝ (1+v)^-zipfS, the law
// table.GenSpec.SelZipf draws selection values from.
var zipfCDF = func() [selCard]float64 {
	var cdf [selCard]float64
	sum := 0.0
	for v := range cdf {
		sum += math.Pow(float64(1+v), -zipfS)
		cdf[v] = sum
	}
	for v := range cdf {
		cdf[v] /= sum
	}
	return cdf
}()

// valueAt maps a quantile u in [0,1) to a selection value, Zipf-skewed or
// uniform.
func valueAt(u float64, skewed bool) int32 {
	if !skewed {
		return int32(u * selCard)
	}
	for v, c := range zipfCDF {
		if u < c {
			return int32(v)
		}
	}
	return selCard - 1
}

func drawTuple(r *rand.Rand, skewed bool, sel []int32, rank []float64) {
	for d := range sel {
		sel[d] = valueAt(r.Float64(), skewed)
	}
	for d := range rank {
		rank[d] = r.Float64()
	}
}

// buildRelation loads the workload's base relation through the public API.
func buildRelation(rows int, skewed bool) (*rankcube.Relation, error) {
	rel, err := rankcube.NewRelation(
		[]string{"A1", "A2", "A3", "A4"}, []int{selCard, selCard, selCard, selCard},
		[]string{"N1", "N2", "N3"})
	if err != nil {
		return nil, err
	}
	r := rng(datasetSeed, listRelation, 0, 0)
	sel := make([]int32, selDims)
	rank := make([]float64, rankDims)
	for i := 0; i < rows; i++ {
		drawTuple(r, skewed, sel, rank)
		rel.Append(sel, rank)
	}
	return rel, nil
}

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
)

func (k opKind) String() string {
	switch k {
	case opInsert:
		return "insert"
	case opDelete:
		return "delete"
	}
	return "query"
}

type op struct {
	kind opKind
	// pair keys an insert and the later delete that removes its tuple.
	pair int64

	cond    rankcube.Cond
	attrs   []int
	weights []float64
	k       int

	sel  []int32
	rank []float64
}

func (o op) fn() rankcube.Func { return rankcube.Linear(o.attrs, o.weights) }

// opList is one deterministic, indexable op list.
type opList struct {
	seed   int64
	id     list
	skewed bool
	// block > 0 makes the list maintenance-bearing: each block of block ops
	// holds one insert and one later delete of that insert; the rest are
	// queries. A block of 2 is pure maintenance.
	block int
}

// at returns op i of the list.
func (l opList) at(i int64) op {
	if l.block > 0 {
		b, pos := i/int64(l.block), int(i%int64(l.block))
		br := rng(l.seed, l.id, 1, uint64(b))
		p := br.Perm(l.block)
		ins, del := min(p[0], p[1]), max(p[0], p[1])
		switch pos {
		case ins:
			r := rng(l.seed, l.id, 0, uint64(i))
			o := op{kind: opInsert, pair: b, sel: make([]int32, selDims), rank: make([]float64, rankDims)}
			drawTuple(r, l.skewed, o.sel, o.rank)
			return o
		case del:
			return op{kind: opDelete, pair: b}
		}
	}
	return l.query(i)
}

// cycle is the length of the stretch of a list over which query values
// are stratified; a multiple of the six query shapes.
const cycle = 120

// query draws a query. The shape cycles with i so every stretch of six ops
// holds each (conditions, k) pair once: 1–2 equality conditions on distinct
// dimensions, a random-weight Linear over the ranking dimensions, and
// k ∈ {1, 10, 100}. Condition values follow the relation's law, drawn by
// stratified sampling: within each cycle, the value quantiles of each
// condition slot fall once into each of cycle/2 equal strata, in an order
// the seed shuffles. How many queries hit rare values — and so the heavy
// tail — then varies far less from seed to seed than under independent
// draws.
func (l opList) query(i int64) op {
	r := rng(l.seed, l.id, 0, uint64(i))
	nconds := 1 + int(i%2)
	o := op{
		kind:    opQuery,
		cond:    make(rankcube.Cond, nconds),
		attrs:   []int{0, 1, 2},
		weights: make([]float64, rankDims),
		k:       topKs[(i/2)%int64(len(topKs))],
	}
	c, j := uint64(i/cycle), int(i%cycle)/2
	for s, d := range r.Perm(selDims)[:nconds] {
		slot := uint64(nconds + s) // 1 for one condition, 2 and 3 for two
		stratum := rng(l.seed, l.id, 1+slot, c).Perm(cycle / 2)[j]
		o.cond[d] = valueAt((float64(stratum)+r.Float64())/(cycle/2), l.skewed)
	}
	for d := range o.weights {
		o.weights[d] = 0.1 + 0.9*r.Float64()
	}
	return o
}
