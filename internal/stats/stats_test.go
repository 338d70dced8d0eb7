package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMeanSumVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %g, want 5", got)
	}
	if got := Sum(xs); got != 40 {
		t.Fatalf("Sum = %g, want 40", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %g, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Fatalf("StdDev = %g, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %g, want 0", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Fatalf("Variance(single) = %g, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	lo, err := Min(xs)
	if err != nil || lo != -1 {
		t.Fatalf("Min = %g, %v", lo, err)
	}
	hi, err := Max(xs)
	if err != nil || hi != 7 {
		t.Fatalf("Max = %g, %v", hi, err)
	}
	if _, err := Min(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Min(nil): want ErrEmpty, got %v", err)
	}
	if _, err := Max(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Max(nil): want ErrEmpty, got %v", err)
	}
}

func TestHarmonicMean(t *testing.T) {
	hm, err := HarmonicMean([]float64{1, 4, 4})
	if err != nil {
		t.Fatalf("HarmonicMean: %v", err)
	}
	if math.Abs(hm-2) > 1e-12 {
		t.Fatalf("HarmonicMean = %g, want 2", hm)
	}
}

func TestHarmonicMeanRejectsNonPositive(t *testing.T) {
	if _, err := HarmonicMean([]float64{1, 0}); err == nil {
		t.Fatal("want error for zero sample")
	}
	if _, err := HarmonicMean(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

// Property: the harmonic mean never exceeds the arithmetic mean (AM-HM
// inequality), which is exactly why it damps throughput spikes.
func TestHarmonicMeanBelowArithmetic(t *testing.T) {
	check := func(a, b, c float64) bool {
		clamp := func(v float64) float64 {
			v = math.Abs(v)
			if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
				return 1
			}
			return math.Mod(v, 100) + 0.1
		}
		xs := []float64{clamp(a), clamp(b), clamp(c)}
		hm, err := HarmonicMean(xs)
		if err != nil {
			return false
		}
		return hm <= Mean(xs)+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.1, 14},
	} {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", tc.q, err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Fatal("want error for q > 1")
	}
	got, err := Quantile([]float64{42}, 0.99)
	if err != nil || got != 42 {
		t.Fatalf("single-sample quantile = %g, %v", got, err)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile sorted caller's slice: %v", xs)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("r = %g, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %g, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want length-mismatch error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("want zero-variance error")
	}
}

func TestCDF(t *testing.T) {
	pts, err := CDF([]float64{3, 1, 2})
	if err != nil {
		t.Fatalf("CDF: %v", err)
	}
	if len(pts) != 3 {
		t.Fatalf("len = %d, want 3", len(pts))
	}
	if pts[0].Value != 1 || math.Abs(pts[0].P-1.0/3) > 1e-12 {
		t.Fatalf("first point = %+v", pts[0])
	}
	if pts[2].Value != 3 || pts[2].P != 1 {
		t.Fatalf("last point = %+v", pts[2])
	}
}

// Property: a CDF is monotone in both value and probability and ends at 1.
func TestCDFMonotone(t *testing.T) {
	check := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs = append(xs, v)
		}
		pts, err := CDF(xs)
		if err != nil {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Value < pts[i-1].Value || pts[i].P <= pts[i-1].P {
				return false
			}
		}
		return pts[len(pts)-1].P == 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{1, 5, 10, 15, 20}
	if got := FractionAbove(xs, 10); got != 0.4 {
		t.Fatalf("FractionAbove = %g, want 0.4", got)
	}
	if got := FractionAbove(nil, 10); got != 0 {
		t.Fatalf("FractionAbove(nil) = %g, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.N != 5 || s.Mean != 3 || s.P50 != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.HarmonicMean <= 0 || s.HarmonicMean > s.Mean {
		t.Fatalf("harmonic mean %g out of range", s.HarmonicMean)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGDistributions(t *testing.T) {
	g := NewRNG(1)
	n := 20000
	var normSum, uniSum float64
	for i := 0; i < n; i++ {
		normSum += g.Normal(5, 2)
		uniSum += g.Uniform(10, 20)
	}
	if m := normSum / float64(n); math.Abs(m-5) > 0.1 {
		t.Fatalf("Normal mean = %g, want ≈5", m)
	}
	if m := uniSum / float64(n); math.Abs(m-15) > 0.2 {
		t.Fatalf("Uniform mean = %g, want ≈15", m)
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	g := NewRNG(2)
	for i := 0; i < 1000; i++ {
		if v := g.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %g", v)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(9)
	child := parent.Fork()
	// Child stream must be deterministic given the fork order.
	parent2 := NewRNG(9)
	child2 := parent2.Fork()
	for i := 0; i < 50; i++ {
		if child.Float64() != child2.Float64() {
			t.Fatal("forked streams not reproducible")
		}
	}
}

func TestRNGExp(t *testing.T) {
	g := NewRNG(4)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := g.Exp(3)
		if v < 0 {
			t.Fatalf("negative exponential sample %g", v)
		}
		sum += v
	}
	if m := sum / float64(n); math.Abs(m-3) > 0.15 {
		t.Fatalf("Exp mean = %g, want ≈3", m)
	}
}

func TestRNGPermAndShuffle(t *testing.T) {
	g := NewRNG(5)
	perm := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range perm {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", perm)
		}
		seen[v] = true
	}
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]int(nil), xs...)
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: %v vs %v", xs, orig)
	}
}

func TestRNGIntn(t *testing.T) {
	g := NewRNG(6)
	for i := 0; i < 1000; i++ {
		if v := g.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}
