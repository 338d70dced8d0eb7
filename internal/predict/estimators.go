package predict

import (
	"fmt"
	"math"

	"ptile360/internal/stats"
)

// Estimator predicts near-future throughput from observed per-download
// throughput samples. The paper uses the harmonic mean (Section IV-C) and
// cites rate-based alternatives [25, 26] as out of scope; several are
// implemented here for the bandwidth-estimator ablation (DESIGN.md §5.5).
type Estimator interface {
	// Observe records a completed download's throughput in bits/s.
	Observe(rateBps float64) error
	// Estimate returns the predicted throughput in bits/s. It fails until
	// at least one sample has been observed.
	Estimate() (float64, error)
	// Ready reports whether at least one sample has been observed.
	Ready() bool
}

// Compile-time interface checks.
var (
	_ Estimator = (*Bandwidth)(nil)
	_ Estimator = (*LastSample)(nil)
	_ Estimator = (*EWMA)(nil)
	_ Estimator = (*MovingAverage)(nil)
)

// maxSaneRateBps caps believable throughput samples at 10 Tbit/s. Samples
// beyond it (a miscomputed elapsed time, a cosmic-ray divisor) clamp rather
// than blow the estimate out for the whole window.
const maxSaneRateBps = 1e13

// sanitizeRate validates one throughput observation. NaN, ±Inf, and
// non-positive samples are rejected — a poisoned sample must never enter an
// estimator window, where a single NaN would stick the estimate at NaN for
// the rest of the session. Finite but absurd samples clamp to
// maxSaneRateBps.
func sanitizeRate(rateBps float64) (float64, error) {
	if math.IsNaN(rateBps) || math.IsInf(rateBps, 0) {
		return 0, fmt.Errorf("predict: non-finite throughput %g", rateBps)
	}
	if rateBps <= 0 {
		return 0, fmt.Errorf("predict: non-positive throughput %g", rateBps)
	}
	if rateBps > maxSaneRateBps {
		return maxSaneRateBps, nil
	}
	return rateBps, nil
}

// LastSample predicts the most recent throughput — the naive baseline that
// chases every fluctuation.
type LastSample struct {
	last  float64
	ready bool
}

// NewLastSample returns a last-sample estimator.
func NewLastSample() *LastSample { return &LastSample{} }

// Observe implements Estimator.
func (e *LastSample) Observe(rateBps float64) error {
	r, err := sanitizeRate(rateBps)
	if err != nil {
		return err
	}
	e.last, e.ready = r, true
	return nil
}

// Estimate implements Estimator.
func (e *LastSample) Estimate() (float64, error) {
	if !e.ready {
		return 0, fmt.Errorf("predict: no bandwidth history")
	}
	return e.last, nil
}

// Ready implements Estimator.
func (e *LastSample) Ready() bool { return e.ready }

// EWMA predicts with an exponentially weighted moving average, the classic
// TCP-style smoother.
type EWMA struct {
	alpha float64
	value float64
	ready bool
}

// NewEWMA returns an EWMA estimator; alpha ∈ (0, 1] weights the newest
// sample (higher = more reactive).
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("predict: EWMA alpha %g outside (0, 1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Observe implements Estimator.
func (e *EWMA) Observe(rateBps float64) error {
	r, err := sanitizeRate(rateBps)
	if err != nil {
		return err
	}
	if !e.ready {
		e.value, e.ready = r, true
		return nil
	}
	e.value = e.alpha*r + (1-e.alpha)*e.value
	return nil
}

// Estimate implements Estimator.
func (e *EWMA) Estimate() (float64, error) {
	if !e.ready {
		return 0, fmt.Errorf("predict: no bandwidth history")
	}
	return e.value, nil
}

// Ready implements Estimator.
func (e *EWMA) Ready() bool { return e.ready }

// MovingAverage predicts with the arithmetic mean over a sliding window —
// smoother than last-sample but, unlike the harmonic mean, biased upward by
// throughput spikes.
type MovingAverage struct {
	window  int
	samples []float64
}

// NewMovingAverage returns an arithmetic-mean estimator over the given
// window.
func NewMovingAverage(window int) (*MovingAverage, error) {
	if window <= 0 {
		return nil, fmt.Errorf("predict: non-positive window %d", window)
	}
	return &MovingAverage{window: window, samples: make([]float64, 0, window)}, nil
}

// Observe implements Estimator. Like Bandwidth, the full window shifts in
// place so steady-state observation allocates nothing.
func (e *MovingAverage) Observe(rateBps float64) error {
	r, err := sanitizeRate(rateBps)
	if err != nil {
		return err
	}
	if len(e.samples) < e.window {
		e.samples = append(e.samples, r)
		return nil
	}
	copy(e.samples, e.samples[1:])
	e.samples[e.window-1] = r
	return nil
}

// Estimate implements Estimator.
func (e *MovingAverage) Estimate() (float64, error) {
	if len(e.samples) == 0 {
		return 0, fmt.Errorf("predict: no bandwidth history")
	}
	return stats.Mean(e.samples), nil
}

// Ready implements Estimator.
func (e *MovingAverage) Ready() bool { return len(e.samples) > 0 }

// EstimatorKind names a bandwidth-estimator family for configuration.
type EstimatorKind int

// Estimator kinds.
const (
	// EstimatorHarmonic is the paper's harmonic mean (default).
	EstimatorHarmonic EstimatorKind = iota + 1
	// EstimatorLastSample chases the most recent sample.
	EstimatorLastSample
	// EstimatorEWMA smooths exponentially with α = 0.3.
	EstimatorEWMA
	// EstimatorMovingAverage averages arithmetically over the window.
	EstimatorMovingAverage
	// EstimatorDelayGradient is the GCC-style arrival-group delay-gradient
	// estimator (delaygradient.go); it additionally consumes packet timing
	// via PacketObserver when the network path provides it.
	EstimatorDelayGradient
)

// String implements fmt.Stringer.
func (k EstimatorKind) String() string {
	switch k {
	case EstimatorHarmonic:
		return "harmonic"
	case EstimatorLastSample:
		return "last-sample"
	case EstimatorEWMA:
		return "ewma"
	case EstimatorMovingAverage:
		return "moving-average"
	case EstimatorDelayGradient:
		return "delay-gradient"
	default:
		return fmt.Sprintf("EstimatorKind(%d)", int(k))
	}
}

// ParseEstimatorKind maps a kind name (as produced by String) back to the
// kind. The empty string means the paper's harmonic-mean default.
func ParseEstimatorKind(name string) (EstimatorKind, error) {
	switch name {
	case "", "harmonic":
		return EstimatorHarmonic, nil
	case "last-sample":
		return EstimatorLastSample, nil
	case "ewma":
		return EstimatorEWMA, nil
	case "moving-average":
		return EstimatorMovingAverage, nil
	case "delay-gradient":
		return EstimatorDelayGradient, nil
	default:
		return 0, fmt.Errorf("predict: unknown estimator %q (harmonic, last-sample, ewma, moving-average, delay-gradient)", name)
	}
}

// NewEstimator constructs an estimator of the given kind. window applies to
// the windowed kinds.
func NewEstimator(kind EstimatorKind, window int) (Estimator, error) {
	switch kind {
	case EstimatorHarmonic:
		return NewBandwidth(window)
	case EstimatorLastSample:
		return NewLastSample(), nil
	case EstimatorEWMA:
		return NewEWMA(0.3)
	case EstimatorMovingAverage:
		return NewMovingAverage(window)
	case EstimatorDelayGradient:
		return NewDelayGradient(), nil
	default:
		return nil, fmt.Errorf("predict: unknown estimator kind %d", int(kind))
	}
}
