package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank returns the 1-based nearest rank of percentile p among n samples.
// The epsilon keeps p·n that is an integer in exact arithmetic (0.99·1000)
// from rounding up to the next rank in floating point.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)-1e-9)))
}

// beyond counts the samples above percentile p among n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// samplesFor is the fewest samples that put minBeyond beyond percentile p.
func samplesFor(p float64) int {
	n := minBeyond + 1
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// tailLadder lists the percentiles a run may report, highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// tailPercentile is the highest percentile of the ladder with at least
// minBeyond samples beyond it among n samples, or 0 when none has.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of sorted, or 0 when it
// is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method).
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
