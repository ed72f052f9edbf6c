package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// A/B comparison of two result sets, for hosts without benchstat. A result
// set is a file holding the output of several runs; every line that parses
// as a result is one run, in the order the runs were made. Run the parent
// and the change alternately, so run i of each side forms a pair.
//
// For every metric it prints each side's median and quartiles, the
// parent's own spread (IQR over median) and a verdict:
//
//	regression  the change's median is worse than the parent's by more than
//	            the metric's bound (end-to-end metrics only)
//	unresolved  the parent's spread exceeds the bound and not every change
//	            run beats every parent run
//	better      the change wins ≥ 9/10 of the pairs and the medians differ by
//	            more than the parent's IQR
//	worse       the same rule, the other way (per-layer metrics)
//	same        none of these
//
// The exit status is 1 when any end-to-end metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <parent results> <change results>")
		return 2
	}
	parent, err := readResults(args[0])
	if err == nil && len(parent) == 0 {
		err = fmt.Errorf("%s holds no results", args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	change, err := readResults(args[1])
	if err == nil && len(change) == 0 {
		err = fmt.Errorf("%s holds no results", args[1])
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rows := compare(parent, change)
	fmt.Fprintf(stdout, "%d parent runs, %d change runs\n", len(parent), len(change))
	fmt.Fprintf(stdout, "%-28s %-6s %12s %12s %12s %8s %12s %12s %12s %9s  %s\n",
		"metric", "unit", "parent.q1", "parent.med", "parent.q3", "spread", "change.q1", "change.med", "change.q3", "worse.by", "verdict")
	status := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-28s %-6s %12.4f %12.4f %12.4f %7.1f%% %12.4f %12.4f %12.4f %8.1f%%  %s\n",
			r.name, r.unit, r.p.q1, r.p.med, r.p.q3, 100*r.spread, r.c.q1, r.c.med, r.c.q3, 100*r.worseBy, r.verdict)
		if r.verdict == "regression" {
			status = 1
		}
	}
	return status
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		var r result
		if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &r) != nil || r.Metrics == nil {
			continue
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read results %s: %w", path, err)
	}
	return out, nil
}

type summary struct{ q1, med, q3 float64 }

func summarize(v []float64) summary {
	q1, q3 := quartiles(v)
	return summary{q1, median(v), q3}
}

type comparison struct {
	name, unit, verdict string
	p, c                summary
	spread, worseBy     float64
}

// compare judges every metric of the spec that both sides report.
func compare(parent, change []result) []comparison {
	var rows []comparison
	judgeAll := func(name, unit, better string, bound float64) {
		pv, cv := values(parent, name), values(change, name)
		if len(pv) > 0 && len(cv) > 0 {
			rows = append(rows, judge(name, unit, better, bound, pv, cv))
		}
	}
	for _, m := range endToEnd {
		judgeAll(m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range perLayer {
		judgeAll(m.Name, m.Unit, m.Better, 0)
	}
	return rows
}

func values(rs []result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// judge applies the verdict rules to one metric; pv[i] and cv[i] pair up.
func judge(name, unit, better string, bound float64, pv, cv []float64) comparison {
	r := comparison{name: name, unit: unit, p: summarize(pv), c: summarize(cv)}
	sign := 1.0 // positive worseBy means the change is worse
	if better == "higher" {
		sign = -1
	}
	base := math.Abs(r.p.med)
	if base > 0 {
		r.spread = (r.p.q3 - r.p.q1) / base
		r.worseBy = sign * (r.c.med - r.p.med) / base
	}
	wins, losses := 0, 0
	pairs := min(len(pv), len(cv))
	for i := range pairs {
		switch d := sign * (cv[i] - pv[i]); {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	clear := math.Abs(r.c.med-r.p.med) > r.p.q3-r.p.q1
	allBetter := slices.Max(cv) < slices.Min(pv)
	if better == "higher" {
		allBetter = slices.Min(cv) > slices.Max(pv)
	}
	switch {
	case bound > 0 && r.worseBy > bound:
		r.verdict = "regression"
	case bound > 0 && r.spread > bound && !allBetter:
		r.verdict = "unresolved"
	case clear && 10*wins >= 9*pairs:
		r.verdict = "better"
	case clear && 10*losses >= 9*pairs:
		r.verdict = "worse"
	default:
		r.verdict = "same"
	}
	return r
}
