package main

import (
	"math"
	"testing"
)

// Reference values from Python's statistics.quantiles(data, n=4).
func TestQuantilesMatchPython(t *testing.T) {
	cases := []struct {
		data []float64
		want []float64
	}{
		{[]float64{1, 2, 3, 4}, []float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, []float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, []float64{1.5, 3, 4.5}},
		{[]float64{7}, []float64{7, 7, 7}},
	}
	for _, c := range cases {
		got := quantiles(c.data, 4)
		for i := range c.want {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quantiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9}, 9},
	} {
		if got := median(c.data); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.data, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

func TestJudge(t *testing.T) {
	ten := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	cases := []struct {
		name           string
		parent, change []float64
		lower          bool
		bound          float64
		want           string
	}{
		{"clear gain, lower is better", ten(100, 1), ten(80, 1), true, 0.1, verdictGain},
		{"clear gain, higher is better", ten(100, 1), ten(120, 1), false, 0.1, verdictGain},
		{"gain needs ten pairs", ten(100, 1)[:9], ten(80, 1)[:9], true, 0.1, verdictSame},
		{"same within bound", ten(100, 1), ten(101, 1), true, 0.1, verdictSame},
		{"regression beyond bound", ten(100, 1), ten(120, 1), true, 0.1, verdictRegression},
		{"regression, higher is better", ten(100, 1), ten(80, 1), false, 0.1, verdictRegression},
		{"spread wider than bound", ten(100, 10), ten(100, 10), true, 0.1, verdictUnresolved},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.parent, c.change, c.lower, c.bound); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}

// A gain needs nine wins in ten pairs, and medians further apart than the
// parent's quartile distance.
func TestJudgeGainRules(t *testing.T) {
	parent := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	change := []float64{90, 90, 90, 90, 90, 90, 90, 90, 110, 110} // 8 wins of 10
	if got, _, _ := judge(parent, change, true, 0.25); got == verdictGain {
		t.Errorf("8/10 wins judged a gain")
	}
	change[8] = 90 // 9 wins of 10
	if got, _, _ := judge(parent, change, true, 0.25); got != verdictGain {
		t.Errorf("9/10 wins: judge = %q, want gain", got)
	}
	wide := []float64{60, 80, 100, 120, 140, 60, 80, 100, 120, 140}
	near := make([]float64, 10)
	for i, p := range wide {
		near[i] = p - 5 // wins every pair, but by less than the parent's IQR
	}
	if got, _, _ := judge(wide, near, true, 0.5); got == verdictGain {
		t.Errorf("difference inside the parent's IQR judged a gain")
	}
}

// When every change run beats every parent run, a wide spread still reads
// as no regression.
func TestJudgeAllBetterOverridesSpread(t *testing.T) {
	parent := []float64{100, 130, 160}
	change := []float64{50, 60, 70}
	if got, _, _ := judge(parent, change, true, 0.1); got != verdictSame {
		t.Errorf("judge = %q, want %q", got, verdictSame)
	}
}
