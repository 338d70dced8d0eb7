// Package predict implements the client-side predictors of Section IV:
// ridge-regression viewport prediction over the 50 Hz viewing-center
// coordinate streams, and the harmonic-mean throughput estimator the MPC
// controller uses.
package predict

import (
	"fmt"
	"math"

	"ptile360/internal/geom"
	"ptile360/internal/mat"
	"ptile360/internal/stats"
)

// ViewportKind selects the viewport-prediction family.
type ViewportKind int

// Viewport predictor kinds.
const (
	// ViewportRidge is the paper's ridge-regression extrapolation (default,
	// zero value).
	ViewportRidge ViewportKind = iota
	// ViewportOLS is ordinary least squares (no slope damping) — the
	// overfitting-prone baseline the paper rejects.
	ViewportOLS
	// ViewportStatic predicts the current position (no extrapolation).
	ViewportStatic
)

// String implements fmt.Stringer.
func (k ViewportKind) String() string {
	switch k {
	case ViewportRidge:
		return "ridge"
	case ViewportOLS:
		return "ols"
	case ViewportStatic:
		return "static"
	default:
		return fmt.Sprintf("ViewportKind(%d)", int(k))
	}
}

// ViewportConfig tunes the viewport predictor.
type ViewportConfig struct {
	// Kind selects the predictor family; the zero value is the paper's
	// ridge regression.
	Kind ViewportKind
	// HistorySec is how much recent history (seconds) feeds the regression.
	HistorySec float64
	// SampleRate is the coordinate sampling rate in Hz.
	SampleRate float64
	// Lambda is the ridge penalty; the paper chose ridge regression for its
	// robustness to overfitting on short, correlated histories.
	Lambda float64
}

// DefaultViewportConfig returns the evaluation setting: one second of 50 Hz
// history with a mild ridge penalty.
func DefaultViewportConfig() ViewportConfig {
	return ViewportConfig{HistorySec: 1.0, SampleRate: 50, Lambda: 1.0}
}

// Validate reports whether the configuration is usable.
func (c ViewportConfig) Validate() error {
	if c.HistorySec <= 0 {
		return fmt.Errorf("predict: non-positive history %g", c.HistorySec)
	}
	if c.SampleRate <= 0 {
		return fmt.Errorf("predict: non-positive sample rate %g", c.SampleRate)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("predict: negative ridge penalty %g", c.Lambda)
	}
	return nil
}

// Viewport predicts the viewing center horizonSec seconds past the end of
// the coordinate history. xs must be the unwrapped x stream (continuous
// across the panorama seam, as produced by Trace.XYSeries) and ys the y
// stream; both sampled at cfg.SampleRate with the last element being "now".
//
// Each coordinate is regressed on time with ridge-regularized linear least
// squares and extrapolated to the target instant.
func Viewport(xs, ys []float64, horizonSec float64, cfg ViewportConfig) (geom.Point, error) {
	if err := cfg.Validate(); err != nil {
		return geom.Point{}, err
	}
	if len(xs) != len(ys) {
		return geom.Point{}, fmt.Errorf("predict: x/y length mismatch %d vs %d", len(xs), len(ys))
	}
	n := int(cfg.HistorySec * cfg.SampleRate)
	if n < 2 {
		return geom.Point{}, fmt.Errorf("predict: history window of %d samples too short", n)
	}
	if len(xs) < 2 {
		return geom.Point{}, fmt.Errorf("predict: need at least 2 samples, got %d", len(xs))
	}
	if horizonSec < 0 {
		return geom.Point{}, fmt.Errorf("predict: negative horizon %g", horizonSec)
	}
	if len(xs) < n {
		n = len(xs)
	}
	if cfg.Kind == ViewportStatic {
		return geom.Point{X: geom.NormalizeYaw(xs[len(xs)-1]), Y: clampY(ys[len(ys)-1])}, nil
	}
	hx := xs[len(xs)-n:]
	hy := ys[len(ys)-n:]

	design := viewportDesign(n, cfg.SampleRate)
	penalties := viewportPenalties(cfg)
	cx, err := mat.RidgeLeastSquaresPenalized(design, hx, penalties)
	if err != nil {
		return geom.Point{}, fmt.Errorf("predict: x fit: %w", err)
	}
	cy, err := mat.RidgeLeastSquaresPenalized(design, hy, penalties)
	if err != nil {
		return geom.Point{}, fmt.Errorf("predict: y fit: %w", err)
	}
	px := cx[0] + cx[1]*horizonSec
	py := cy[0] + cy[1]*horizonSec
	return geom.Point{X: geom.NormalizeYaw(px), Y: clampY(py)}, nil
}

// viewportDesign is the regression design for an n-sample window: rows
// [1, tᵢ] with the time axis centred at "now" (t = 0), so the intercept is
// the current position and extrapolation is numerically stable.
func viewportDesign(n int, sampleRate float64) *mat.Matrix {
	dt := 1 / sampleRate
	design := mat.New(n, 2)
	for i := 0; i < n; i++ {
		design.Set(i, 0, 1)
		design.Set(i, 1, float64(i-(n-1))*dt)
	}
	return design
}

// viewportPenalties penalizes only the slope: shrinking the intercept would
// bias the prediction toward panorama coordinate 0. The OLS kind zeroes the
// penalty entirely.
func viewportPenalties(cfg ViewportConfig) []float64 {
	lambda := cfg.Lambda
	if cfg.Kind == ViewportOLS {
		lambda = 0
	}
	return []float64{0, lambda}
}

func clampY(y float64) float64 {
	if y < 0 {
		return 0
	}
	if y > 180 {
		return 180
	}
	return y
}

// Bandwidth estimates the throughput for upcoming downloads as the harmonic
// mean of the last window per-segment throughput samples (Section IV-C).
//
// Small windows (≤ bandwidthInlineCap) are stored in the struct itself, so a
// value embedded in bulk-allocated session state costs no separate heap
// allocation. A Bandwidth must not be copied after Init/Observe: the samples
// slice may alias the inline array.
type Bandwidth struct {
	window  int
	samples []float64
	inline  [8]float64
}

// bandwidthInlineCap is the largest window served by the inline array.
const bandwidthInlineCap = 8

// NewBandwidth returns an estimator over the given window size (the paper
// uses the past several segments; 5 is the customary MPC setting).
func NewBandwidth(window int) (*Bandwidth, error) {
	b := new(Bandwidth)
	if err := b.Init(window); err != nil {
		return nil, err
	}
	return b, nil
}

// Init (re)initializes a zero-valued or recycled estimator in place with the
// given window, backing small windows with the inline array. Bulk allocators
// (fleet session slabs) use this to avoid the per-session allocations
// NewBandwidth would cost.
func (b *Bandwidth) Init(window int) error {
	if window <= 0 {
		return fmt.Errorf("predict: non-positive bandwidth window %d", window)
	}
	b.window = window
	if window <= bandwidthInlineCap {
		b.samples = b.inline[:0]
	} else {
		b.samples = make([]float64, 0, window)
	}
	return nil
}

// Observe records a completed download's throughput in bits/s. The window is
// a fixed-capacity buffer shifted in place (oldest-first order preserved for
// the harmonic-mean sum), so steady-state observation allocates nothing.
func (b *Bandwidth) Observe(rateBps float64) error {
	r, err := sanitizeRate(rateBps)
	if err != nil {
		return err
	}
	if len(b.samples) < b.window {
		b.samples = append(b.samples, r)
		return nil
	}
	copy(b.samples, b.samples[1:])
	b.samples[b.window-1] = r
	return nil
}

// Estimate returns the harmonic-mean throughput estimate. It fails until at
// least one sample has been observed.
func (b *Bandwidth) Estimate() (float64, error) {
	hm, err := stats.HarmonicMean(b.samples)
	if err != nil {
		return 0, fmt.Errorf("predict: no bandwidth history: %w", err)
	}
	return hm, nil
}

// Ready reports whether at least one sample has been observed.
func (b *Bandwidth) Ready() bool { return len(b.samples) > 0 }

// AppendStateBits implements StateBits: the window plus every sample, in
// window order.
func (b *Bandwidth) AppendStateBits(dst []uint64) []uint64 {
	dst = append(dst, uint64(EstimatorHarmonic), uint64(b.window), uint64(len(b.samples)))
	for _, s := range b.samples {
		dst = append(dst, math.Float64bits(s))
	}
	return dst
}
