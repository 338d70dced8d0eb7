package main

import (
	"math"
	"sort"
)

// quantiles returns the n-1 cut points dividing data into n groups of equal
// probability, interpolated like Python's statistics.quantiles with its
// default "exclusive" method, so the spreads this benchmark reports match
// the ones computed from its output with that function. It needs at least
// two values; with one, every cut point is that value.
func quantiles(data []float64, n int) []float64 {
	out := make([]float64, n-1)
	if len(data) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	if len(d) == 1 {
		for i := range out {
			out[i] = d[0]
		}
		return out
	}
	m := len(d) + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return out
}

// median is the middle value (the mean of the two middle values for an
// even count); NaN for no values.
func median(data []float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	h := len(d) / 2
	if len(d)%2 == 1 {
		return d[h]
	}
	return (d[h-1] + d[h]) / 2
}

// spread summarizes one side of a comparison.
type spread struct {
	median, q1, q3 float64
	n              int
}

func spreadOf(data []float64) spread {
	q := quantiles(data, 4)
	return spread{median: median(data), q1: q[0], q3: q[2], n: len(data)}
}

// iqr is the distance between the quartiles.
func (s spread) iqr() float64 { return s.q3 - s.q1 }

// relIQR is the quartile distance as a share of the median.
func (s spread) relIQR() float64 { return s.iqr() / math.Abs(s.median) }

// Verdicts of a comparison.
const (
	verdictGain       = "gain"
	verdictSame       = "no regression"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// Rules for claiming a gain.
const (
	minPairs    = 10
	minWinShare = 0.9
)

// judge compares parent and change runs of one metric on one workload.
// parent[i] and change[i] form pair i (runs alternated in time). lower
// says a smaller value is better; bound is the share of the parent's
// median by which the change may be worse before it counts as a regression.
//
// A gain needs at least minPairs pairs, the change winning at least
// minWinShare of them (ties count for neither), and medians further apart
// than the parent's own quartile distance. Without a gain, the result is
// unresolved when either side's run-to-run spread exceeds the bound, unless
// every change run beats every parent run; otherwise the change is a
// regression when its median is worse than the parent's by more than the
// bound.
func judge(parent, change []float64, lower bool, bound float64) (string, spread, spread) {
	p, c := spreadOf(parent), spreadOf(change)
	better := func(a, b float64) bool {
		if lower {
			return a < b
		}
		return a > b
	}
	pairs := len(parent)
	if len(change) < pairs {
		pairs = len(change)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if pairs >= minPairs && float64(wins) >= minWinShare*float64(pairs) &&
		better(c.median, p.median) && math.Abs(c.median-p.median) > p.iqr() {
		return verdictGain, p, c
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, cv := range change {
		for _, pv := range parent {
			if !better(cv, pv) {
				allBetter = false
			}
		}
	}
	if allBetter {
		return verdictSame, p, c
	}
	if p.relIQR() > bound || c.relIQR() > bound {
		return verdictUnresolved, p, c
	}
	worse := c.median - p.median
	if !lower {
		worse = -worse
	}
	if worse > bound*math.Abs(p.median) {
		return verdictRegression, p, c
	}
	return verdictSame, p, c
}
