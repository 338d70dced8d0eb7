package predict

import (
	"fmt"

	"ptile360/internal/geom"
	"ptile360/internal/mat"
)

// ViewportPredictor is the reusable form of Viewport for session loops. The
// regression design depends only on the window length n, so the predictor
// keeps one prepared ridge solve (mat.RidgeWorkspace, its normal matrix
// already factored) per n, built on first use: a session still warming up
// (n < the full window) and a steady one can interleave on one predictor
// without rebuilding anything. Predictions are bit-identical to Viewport
// with the same configuration. Not safe for concurrent use.
type ViewportPredictor struct {
	cfg       ViewportConfig
	winN      int
	penalties []float64
	// preps[n] is the prepared solve for an n-sample window (n ≤ winN), nil
	// until an n-sample prediction first asks for it.
	preps []*mat.RidgeWorkspace
}

// NewViewportPredictor validates cfg once and returns a predictor.
func NewViewportPredictor(cfg ViewportConfig) (*ViewportPredictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int(cfg.HistorySec * cfg.SampleRate)
	if n < 2 {
		return nil, fmt.Errorf("predict: history window of %d samples too short", n)
	}
	return &ViewportPredictor{
		cfg:       cfg,
		winN:      n,
		penalties: viewportPenalties(cfg),
		preps:     make([]*mat.RidgeWorkspace, n+1),
	}, nil
}

// Predict is Viewport over the predictor's configuration: xs is the
// unwrapped x stream, ys the y stream, and the result is the extrapolated
// viewing center horizonSec past the last sample.
func (p *ViewportPredictor) Predict(xs, ys []float64, horizonSec float64) (geom.Point, error) {
	if len(xs) != len(ys) {
		return geom.Point{}, fmt.Errorf("predict: x/y length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return geom.Point{}, fmt.Errorf("predict: need at least 2 samples, got %d", len(xs))
	}
	if horizonSec < 0 {
		return geom.Point{}, fmt.Errorf("predict: negative horizon %g", horizonSec)
	}
	if p.cfg.Kind == ViewportStatic {
		return geom.Point{X: geom.NormalizeYaw(xs[len(xs)-1]), Y: clampY(ys[len(ys)-1])}, nil
	}
	n := p.winN
	if len(xs) < n {
		n = len(xs)
	}
	ws := p.preps[n]
	if ws == nil {
		var err error
		if ws, err = mat.NewRidgeWorkspace(viewportDesign(n, p.cfg.SampleRate), p.penalties); err != nil {
			return geom.Point{}, fmt.Errorf("predict: %w", err)
		}
		p.preps[n] = ws
	}
	cx, err := ws.Solve(xs[len(xs)-n:])
	if err != nil {
		return geom.Point{}, fmt.Errorf("predict: x fit: %w", err)
	}
	// The workspace reuses its solution buffer: consume the x coefficients
	// before the y solve overwrites them.
	px := cx[0] + cx[1]*horizonSec
	cy, err := ws.Solve(ys[len(ys)-n:])
	if err != nil {
		return geom.Point{}, fmt.Errorf("predict: y fit: %w", err)
	}
	py := cy[0] + cy[1]*horizonSec
	return geom.Point{X: geom.NormalizeYaw(px), Y: clampY(py)}, nil
}
