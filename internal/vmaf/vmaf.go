// Package vmaf implements the paper's perceived-quality model Q₀
// (Section III-C): the ITU-T-style logistic function of spatial information
// (SI), temporal information (TI) and bitrate fitted against VMAF scores
// (Eq. 3, Table II), and the frame-rate degradation factor driven by
// view-switching speed (Eq. 4).
//
// Since VMAF itself and the subjective dataset are not available offline,
// the package also provides a synthetic measurement campaign: a ground-truth
// logistic surface plus observation noise, and a Levenberg–Marquardt fit
// that recovers the Table II coefficients — the same pipeline (MATLAB
// nlinfit) the authors used.
package vmaf

import (
	"fmt"
	"math"

	"ptile360/internal/mat"
	"ptile360/internal/stats"
)

// Coefficients are the parameters c1..c4 of the Eq. 3 logistic model.
type Coefficients struct {
	C1, C2, C3, C4 float64
}

// TableII returns the published fitted coefficients.
func TableII() Coefficients {
	return Coefficients{C1: -0.2163, C2: 0.0581, C3: -0.1578, C4: 0.7821}
}

// Q0 evaluates Eq. 3: the "original" perceived quality (0–100, VMAF scale)
// of content with spatial information si, temporal information ti, encoded
// at bitrate bMbps (Mbps).
func (c Coefficients) Q0(si, ti, bMbps float64) (float64, error) {
	if si < 0 || ti < 0 {
		return 0, fmt.Errorf("vmaf: negative SI/TI (%g, %g)", si, ti)
	}
	if bMbps <= 0 {
		return 0, fmt.Errorf("vmaf: non-positive bitrate %g", bMbps)
	}
	return 100 / (1 + math.Exp(-(c.C1 + c.C2*si + c.C3*ti + c.C4*bMbps))), nil
}

// Alpha computes the Eq. 4 frame-rate sensitivity α = S_fov / TI: large when
// the viewer switches views quickly (blurred vision tolerates frame drops)
// or the content is static (dropped frames are redundant).
func Alpha(switchSpeedDegPerSec, ti float64) (float64, error) {
	if switchSpeedDegPerSec < 0 {
		return 0, fmt.Errorf("vmaf: negative switching speed %g", switchSpeedDegPerSec)
	}
	if ti <= 0 {
		return 0, fmt.Errorf("vmaf: non-positive TI %g", ti)
	}
	return switchSpeedDegPerSec / ti, nil
}

// FrameRateFactor returns the multiplicative Q₀ degradation
// (1 − e^{−α·f/fm}) / (1 − e^{−α}) for playing at frame rate f instead of
// the source rate fm (Section III-C2). The factor is 1 at f = fm and
// decreases as f drops; larger α means a slower drop.
func FrameRateFactor(alpha, f, fm float64) (float64, error) {
	c, err := NewFrameRateCurve(alpha, fm)
	if err != nil {
		return 0, err
	}
	return c.At(f)
}

// FrameRateCurve is the Eq. 4 factor as a function of f at one α and source
// rate fm. Its denominator 1 − e^{−α} is evaluated once, so scoring several
// frame rates at one α costs one exponential per rate rather than two; At
// is FrameRateFactor(α, f, fm) bit for bit.
type FrameRateCurve struct {
	alpha, fm, den float64
}

// NewFrameRateCurve validates α and fm and evaluates the denominator.
func NewFrameRateCurve(alpha, fm float64) (FrameRateCurve, error) {
	if fm <= 0 {
		return FrameRateCurve{}, fmt.Errorf("vmaf: non-positive source frame rate %g", fm)
	}
	if alpha < 0 {
		return FrameRateCurve{}, fmt.Errorf("vmaf: negative alpha %g", alpha)
	}
	c := FrameRateCurve{alpha: alpha, fm: fm}
	if alpha != 0 {
		c.den = 1 - math.Exp(-alpha)
	}
	return c, nil
}

// At returns the factor at frame rate f.
func (c FrameRateCurve) At(f float64) (float64, error) {
	if f <= 0 || f > c.fm {
		return 0, fmt.Errorf("vmaf: frame rate %g outside (0, %g]", f, c.fm)
	}
	if c.alpha == 0 {
		// Limit α→0: factor → f/fm (linear sensitivity).
		return f / c.fm, nil
	}
	return (1 - math.Exp(-c.alpha*f/c.fm)) / c.den, nil
}

// PerceivedQuality evaluates the full quality model: Eq. 3 degraded by the
// Eq. 4 frame-rate factor.
func (c Coefficients) PerceivedQuality(si, ti, bMbps, switchSpeed, f, fm float64) (float64, error) {
	q0, err := c.Q0(si, ti, bMbps)
	if err != nil {
		return 0, err
	}
	alpha, err := Alpha(switchSpeed, ti)
	if err != nil {
		return 0, err
	}
	factor, err := FrameRateFactor(alpha, f, fm)
	if err != nil {
		return 0, err
	}
	return q0 * factor, nil
}

// Observation is one synthetic VMAF measurement: a (SI, TI, bitrate) stimulus
// and the measured score.
type Observation struct {
	SI, TI, BitrateMbps float64
	Score               float64
}

// SyntheticDataset generates n observations from the ground-truth Table II
// surface with Gaussian measurement noise — the stand-in for running VMAF
// over the encoded training segments (DESIGN.md §2).
func SyntheticDataset(n int, noise float64, seed int64) ([]Observation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vmaf: non-positive observation count %d", n)
	}
	if noise < 0 {
		return nil, fmt.Errorf("vmaf: negative noise %g", noise)
	}
	truth := TableII()
	rng := stats.NewRNG(seed)
	out := make([]Observation, n)
	for i := range out {
		si := rng.Uniform(20, 80)
		ti := rng.Uniform(5, 45)
		b := rng.Uniform(0.3, 8)
		q, err := truth.Q0(si, ti, b)
		if err != nil {
			return nil, err
		}
		score := q + rng.Normal(0, noise)
		if score < 0 {
			score = 0
		}
		if score > 100 {
			score = 100
		}
		out[i] = Observation{SI: si, TI: ti, BitrateMbps: b, Score: score}
	}
	return out, nil
}

// FitResult reports a Q₀ model fit.
type FitResult struct {
	// Coefficients are the fitted c1..c4.
	Coefficients Coefficients
	// Pearson is the correlation between model predictions and observed
	// scores (the paper reports 0.9791).
	Pearson float64
	// RSS is the residual sum of squares.
	RSS float64
	// RMSE and MAE are the fit's root-mean-square and mean absolute errors
	// on the VMAF scale.
	RMSE, MAE float64
}

// Fit recovers the Eq. 3 coefficients from observations by nonlinear least
// squares (Levenberg–Marquardt), reproducing the Table II fit.
func Fit(obs []Observation) (*FitResult, error) {
	if len(obs) < 4 {
		return nil, fmt.Errorf("vmaf: need at least 4 observations, got %d", len(obs))
	}
	model := func(p []float64, i int) float64 {
		o := obs[i]
		return 100 / (1 + math.Exp(-(p[0] + p[1]*o.SI + p[2]*o.TI + p[3]*o.BitrateMbps)))
	}
	y := make([]float64, len(obs))
	for i, o := range obs {
		y[i] = o.Score
	}
	res, err := mat.LevenbergMarquardt(model, y, []float64{0, 0.01, -0.01, 0.1}, mat.LMOptions{MaxIter: 500})
	if err != nil {
		return nil, fmt.Errorf("vmaf: fit: %w", err)
	}
	pred := make([]float64, len(obs))
	var sqErr, absErr float64
	for i := range obs {
		pred[i] = model(res.Params, i)
		d := pred[i] - y[i]
		sqErr += d * d
		absErr += math.Abs(d)
	}
	r, err := stats.Pearson(pred, y)
	if err != nil {
		return nil, fmt.Errorf("vmaf: correlation: %w", err)
	}
	n := float64(len(obs))
	return &FitResult{
		Coefficients: Coefficients{C1: res.Params[0], C2: res.Params[1], C3: res.Params[2], C4: res.Params[3]},
		Pearson:      r,
		RSS:          res.RSS,
		RMSE:         math.Sqrt(sqErr / n),
		MAE:          absErr / n,
	}, nil
}
