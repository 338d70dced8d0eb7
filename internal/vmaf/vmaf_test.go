package vmaf

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTableIICoefficients(t *testing.T) {
	c := TableII()
	if c.C1 != -0.2163 || c.C2 != 0.0581 || c.C3 != -0.1578 || c.C4 != 0.7821 {
		t.Fatalf("Table II = %+v", c)
	}
}

func TestQ0Range(t *testing.T) {
	c := TableII()
	check := func(si, ti, b float64) bool {
		si = math.Mod(math.Abs(si), 100)
		ti = math.Mod(math.Abs(ti), 60)
		b = math.Mod(math.Abs(b), 20) + 0.1
		q, err := c.Q0(si, ti, b)
		return err == nil && q > 0 && q < 100
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQ0MonotoneInBitrate(t *testing.T) {
	c := TableII()
	prev := 0.0
	for b := 0.5; b <= 8; b += 0.5 {
		q, err := c.Q0(50, 25, b)
		if err != nil {
			t.Fatal(err)
		}
		if q <= prev {
			t.Fatalf("Q0 not increasing at b=%g", b)
		}
		prev = q
	}
}

func TestQ0ContentEffects(t *testing.T) {
	c := TableII()
	base, _ := c.Q0(50, 25, 3)
	hiSI, _ := c.Q0(70, 25, 3)
	hiTI, _ := c.Q0(50, 40, 3)
	if hiSI <= base {
		t.Fatal("higher SI should raise Q0 (positive c2)")
	}
	if hiTI >= base {
		t.Fatal("higher TI should lower Q0 (negative c3)")
	}
}

func TestQ0Validation(t *testing.T) {
	c := TableII()
	if _, err := c.Q0(-1, 25, 3); err == nil {
		t.Fatal("want error for negative SI")
	}
	if _, err := c.Q0(50, -1, 3); err == nil {
		t.Fatal("want error for negative TI")
	}
	if _, err := c.Q0(50, 25, 0); err == nil {
		t.Fatal("want error for zero bitrate")
	}
}

func TestAlpha(t *testing.T) {
	a, err := Alpha(30, 25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-1.2) > 1e-12 {
		t.Fatalf("alpha = %g, want 1.2", a)
	}
	if _, err := Alpha(-1, 25); err == nil {
		t.Fatal("want error for negative speed")
	}
	if _, err := Alpha(10, 0); err == nil {
		t.Fatal("want error for zero TI")
	}
}

func TestFrameRateFactorBounds(t *testing.T) {
	// At f = fm the factor is exactly 1 for any α.
	for _, alpha := range []float64{0, 0.1, 1, 5, 20} {
		fac, err := FrameRateFactor(alpha, 30, 30)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fac-1) > 1e-12 {
			t.Fatalf("factor(fm) = %g at α=%g, want 1", fac, alpha)
		}
	}
}

func TestFrameRateFactorMonotoneInF(t *testing.T) {
	prev := 0.0
	for f := 6.0; f <= 30; f += 3 {
		fac, err := FrameRateFactor(2, f, 30)
		if err != nil {
			t.Fatal(err)
		}
		if fac <= prev {
			t.Fatalf("factor not increasing at f=%g", f)
		}
		prev = fac
	}
}

func TestFrameRateFactorMonotoneInAlpha(t *testing.T) {
	// Larger α (fast switching / static content) → milder penalty.
	prev := -1.0
	for _, alpha := range []float64{0.2, 0.5, 1, 2, 5, 10} {
		fac, err := FrameRateFactor(alpha, 21, 30)
		if err != nil {
			t.Fatal(err)
		}
		if fac <= prev {
			t.Fatalf("factor not increasing in α at %g", alpha)
		}
		prev = fac
	}
	// Fast-switching regime: dropping 30% of frames costs almost nothing.
	fac, _ := FrameRateFactor(10, 21, 30)
	if fac < 0.98 {
		t.Fatalf("high-α factor = %g, want ≈1", fac)
	}
	// Static, high-motion-content regime: dropping frames hurts.
	fac, _ = FrameRateFactor(0.3, 21, 30)
	if fac > 0.85 {
		t.Fatalf("low-α factor = %g, want well below 1", fac)
	}
}

func TestFrameRateFactorAlphaZeroLimit(t *testing.T) {
	fac, err := FrameRateFactor(0, 15, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fac-0.5) > 1e-12 {
		t.Fatalf("α→0 limit = %g, want f/fm = 0.5", fac)
	}
}

func TestFrameRateFactorValidation(t *testing.T) {
	if _, err := FrameRateFactor(1, 0, 30); err == nil {
		t.Fatal("want error for zero f")
	}
	if _, err := FrameRateFactor(1, 31, 30); err == nil {
		t.Fatal("want error for f > fm")
	}
	if _, err := FrameRateFactor(-1, 15, 30); err == nil {
		t.Fatal("want error for negative alpha")
	}
}

// TestFrameRateCurveMatchesFactor pins the curve, which evaluates the
// denominator once per α, to the closed form (1 − e^{−α·f/fm}) / (1 − e^{−α})
// on Float64bits, the source rate f = fm included: at α = 0.3973,
// α·30/30 ≠ α in floating point and the factor at f = fm is
// 1.0000000000000004, not 1.
func TestFrameRateCurveMatchesFactor(t *testing.T) {
	const fm = 30.0
	for _, alpha := range []float64{0, 1e-9, 0.05, 0.3973, 0.6, 1, 2.5, 13, 87.3} {
		c, err := NewFrameRateCurve(alpha, fm)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []float64{fm, 27, 24, 21, 15, 0.5} {
			got, err := c.At(f)
			if err != nil {
				t.Fatal(err)
			}
			want := f / fm
			if alpha != 0 {
				want = (1 - math.Exp(-alpha*f/fm)) / (1 - math.Exp(-alpha))
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("α %g f %g: curve %v, closed form %v", alpha, f, got, want)
			}
			if fac, err := FrameRateFactor(alpha, f, fm); err != nil || math.Float64bits(fac) != math.Float64bits(got) {
				t.Fatalf("α %g f %g: FrameRateFactor %v (%v), curve %v", alpha, f, fac, err, got)
			}
		}
	}
	if _, err := NewFrameRateCurve(-1, fm); err == nil {
		t.Fatal("want error for negative alpha")
	}
	if _, err := NewFrameRateCurve(1, 0); err == nil {
		t.Fatal("want error for non-positive source rate")
	}
	c, err := NewFrameRateCurve(1, fm)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, -3, fm + 1} {
		if _, err := c.At(f); err == nil {
			t.Fatalf("want error for f = %g", f)
		}
	}
}

func TestPerceivedQuality(t *testing.T) {
	c := TableII()
	full, err := c.PerceivedQuality(50, 25, 4, 0, 30, 30)
	if err != nil {
		t.Fatal(err)
	}
	q0, _ := c.Q0(50, 25, 4)
	if math.Abs(full-q0) > 1e-9 {
		t.Fatalf("full-rate perceived quality %g != Q0 %g", full, q0)
	}
	reduced, err := c.PerceivedQuality(50, 25, 4, 0, 21, 30)
	if err != nil {
		t.Fatal(err)
	}
	if reduced >= full {
		t.Fatal("reduced frame rate must lower perceived quality")
	}
	// Fast switching: the same reduction costs much less.
	fast, err := c.PerceivedQuality(50, 25, 4, 120, 21, 30)
	if err != nil {
		t.Fatal(err)
	}
	if fast <= reduced {
		t.Fatal("fast switching should soften the frame-rate penalty")
	}
	if _, err := c.PerceivedQuality(50, 0, 4, 10, 21, 30); err == nil {
		t.Fatal("want error for zero TI")
	}
}

func TestSyntheticDataset(t *testing.T) {
	obs, err := SyntheticDataset(500, 1.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 500 {
		t.Fatalf("n = %d", len(obs))
	}
	for i, o := range obs {
		if o.Score < 0 || o.Score > 100 {
			t.Fatalf("obs %d score %g out of range", i, o.Score)
		}
	}
	if _, err := SyntheticDataset(0, 1, 7); err == nil {
		t.Fatal("want error for n=0")
	}
	if _, err := SyntheticDataset(10, -1, 7); err == nil {
		t.Fatal("want error for negative noise")
	}
}

// TestFitRecoversTableII is the Table II experiment: fitting the synthetic
// VMAF campaign must recover the published coefficients with the published
// correlation quality (r = 0.9791 in the paper).
func TestFitRecoversTableII(t *testing.T) {
	obs, err := SyntheticDataset(2000, 2.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	truth := TableII()
	if math.Abs(res.Coefficients.C1-truth.C1) > 0.08 ||
		math.Abs(res.Coefficients.C2-truth.C2) > 0.01 ||
		math.Abs(res.Coefficients.C3-truth.C3) > 0.01 ||
		math.Abs(res.Coefficients.C4-truth.C4) > 0.05 {
		t.Fatalf("fit = %+v, want ≈%+v", res.Coefficients, truth)
	}
	if res.Pearson < 0.97 {
		t.Fatalf("Pearson = %g, want ≥ 0.97", res.Pearson)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Fatal("want error for empty observations")
	}
}

func TestFitErrorMetrics(t *testing.T) {
	obs, err := SyntheticDataset(1000, 2.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	// With σ = 2 observation noise, the residual errors must sit near the
	// noise floor: RMSE ≈ 2, MAE ≈ 1.6 (Gaussian √(2/π)·σ).
	if res.RMSE < 1.5 || res.RMSE > 2.5 {
		t.Fatalf("RMSE = %g, want ≈2", res.RMSE)
	}
	if res.MAE < 1.1 || res.MAE > 2.1 {
		t.Fatalf("MAE = %g, want ≈1.6", res.MAE)
	}
	if res.MAE > res.RMSE {
		t.Fatal("MAE cannot exceed RMSE")
	}
}
