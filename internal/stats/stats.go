// Package stats provides the descriptive-statistics toolkit shared by the
// ptile360 experiments: quantiles, CDFs, harmonic means, Pearson correlation,
// histograms, and deterministic random-variate helpers.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// ErrEmpty is returned by aggregations over empty data sets.
var ErrEmpty = errors.New("stats: empty data set")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// HarmonicMean returns the harmonic mean of xs. It is the bandwidth estimator
// the paper uses to smooth throughput fluctuations (Section IV-C): spikes and
// dips contribute reciprocally, so outliers are dampened. All samples must be
// positive.
func HarmonicMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for i, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: harmonic mean requires positive samples, got %g at index %d", x, i)
		}
		s += 1 / x
	}
	return float64(len(xs)) / s, nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. The input need not be sorted.
//
// The order statistics come from an introselect rather than a full sort —
// O(n) instead of O(n log n) for the million-sample Fig. 5 medians — and the
// selected values equal the sort-based ones, so the interpolation (the same
// expression on the same operands) is bit-identical to the sorted path.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %g outside [0, 1]", q)
	}
	work := make([]float64, len(xs))
	copy(work, xs)
	if len(work) == 1 {
		return work[0], nil
	}
	pos := q * float64(len(work)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	vlo := selectKth(work, lo)
	if lo == hi {
		return vlo, nil
	}
	// selectKth leaves work[lo+1:] holding only elements ≥ work[lo], so the
	// next order statistic is their minimum.
	vhi := work[lo+1]
	for _, x := range work[lo+2:] {
		if x < vhi {
			vhi = x
		}
	}
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac, nil
}

// selectKth partially orders work so work[k] holds the k-th smallest value
// (0-based), everything before index k is ≤ it, and everything after is
// ≥ it, then returns work[k]. Introselect: median-of-three quickselect with
// a recursion-depth bound, falling back to sorting the remaining range when
// the bound is hit or the range is small.
func selectKth(work []float64, k int) float64 {
	lo, hi := 0, len(work)-1
	depth := 2 * bits.Len(uint(len(work)))
	for hi > lo {
		if hi-lo < 12 || depth == 0 {
			sort.Float64s(work[lo : hi+1])
			break
		}
		depth--
		p := partitionFloat64s(work, lo, hi)
		switch {
		case k < p:
			hi = p - 1
		case k > p:
			lo = p + 1
		default:
			return work[k]
		}
	}
	return work[k]
}

// partitionFloat64s is a Lomuto partition around the median of a[lo], a[mid],
// a[hi]: afterwards a[lo..p-1] < a[p] ≤ a[p+1..hi], and p is returned.
func partitionFloat64s(a []float64, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	if a[mid] < a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi] < a[lo] {
		a[hi], a[lo] = a[lo], a[hi]
	}
	if a[hi] < a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
	}
	a[mid], a[hi] = a[hi], a[mid]
	pivot := a[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi] = a[hi], a[i]
	return i
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Pearson returns the Pearson correlation coefficient between xs and ys.
// The paper reports r = 0.9791 for the fitted Q₀ model (Section III-C1).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance input")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	// Value is the sample value.
	Value float64
	// P is the cumulative probability P(X ≤ Value).
	P float64
}

// CDF returns the empirical cumulative distribution function of xs as a
// sorted sequence of (value, probability) points.
func CDF(xs []float64) ([]CDFPoint, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]CDFPoint, len(sorted))
	n := float64(len(sorted))
	for i, v := range sorted {
		out[i] = CDFPoint{Value: v, P: float64(i+1) / n}
	}
	return out, nil
}

// FractionAbove returns the fraction of samples strictly greater than
// threshold. Fig. 5's ">10°/s for more than 30% of time" claim is checked
// with this helper.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var n int
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Summary bundles descriptive statistics of one sample set.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	P25, P50, P75  float64
	P5, P95        float64
	HarmonicMean   float64 // 0 when any sample is non-positive
	FractionAbove0 float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	p5, _ := Quantile(xs, 0.05)
	p25, _ := Quantile(xs, 0.25)
	p50, _ := Quantile(xs, 0.50)
	p75, _ := Quantile(xs, 0.75)
	p95, _ := Quantile(xs, 0.95)
	hm, err := HarmonicMean(xs)
	if err != nil {
		hm = 0
	}
	return Summary{
		N: len(xs), Mean: Mean(xs), Std: StdDev(xs),
		Min: lo, Max: hi,
		P5: p5, P25: p25, P50: p50, P75: p75, P95: p95,
		HarmonicMean:   hm,
		FractionAbove0: FractionAbove(xs, 0),
	}, nil
}
