package sim

import (
	"fmt"

	"ptile360/internal/abr"
	"ptile360/internal/geom"
	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/qoe"
	"ptile360/internal/video"
	"ptile360/internal/vmaf"
)

// Scheme identifies the evaluated streaming approach (Section V-A).
type Scheme int

// Evaluated schemes.
const (
	// SchemeCtile is conventional fixed 4×8 tiling with multiple decoders.
	SchemeCtile Scheme = iota + 1
	// SchemeFtile is the fixed-count variable-size tiling baseline.
	SchemeFtile
	// SchemeNontile downloads the whole panorama at one quality.
	SchemeNontile
	// SchemePtile downloads Ptiles at the source frame rate (the "Ptile"
	// variant of Ours).
	SchemePtile
	// SchemeOurs is the full energy-efficient QoE-aware algorithm with
	// frame-rate adaptation.
	SchemeOurs
)

// Schemes lists all evaluated schemes in presentation order.
func Schemes() []Scheme {
	return []Scheme{SchemeCtile, SchemeFtile, SchemeNontile, SchemePtile, SchemeOurs}
}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeCtile:
		return "Ctile"
	case SchemeFtile:
		return "Ftile"
	case SchemeNontile:
		return "Nontile"
	case SchemePtile:
		return "Ptile"
	case SchemeOurs:
		return "Ours"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// decodeScheme maps a streaming scheme to its Table I decode pipeline.
func (s Scheme) decodeScheme() power.Scheme {
	switch s {
	case SchemeFtile:
		return power.Ftile
	case SchemeNontile:
		return power.Nontile
	case SchemePtile, SchemeOurs:
		return power.PtileScheme
	default:
		return power.Ctile
	}
}

// Config tunes one streaming session.
type Config struct {
	// Scheme selects the approach under evaluation.
	Scheme Scheme
	// Phone selects the Table I power model.
	Phone power.Phone
	// Encoder is the encoder model (must match the catalogue's).
	Encoder video.EncoderConfig
	// Grid is the conventional tile grid.
	Grid geom.Grid
	// FoVDeg is the device field of view (100° in the paper).
	FoVDeg float64
	// SegmentSec is the segment duration L.
	SegmentSec float64
	// BufferCapSec is the playback buffer threshold β (3 s in the paper).
	BufferCapSec float64
	// Horizon is the MPC look-ahead H.
	Horizon int
	// Epsilon is the QoE-loss tolerance of constraint (8c).
	Epsilon float64
	// FrameRates are the available encoded frame rates for Ours
	// (the paper constructs {0, 10, 20, 30}% reductions).
	FrameRates []float64
	// BandwidthWindow is the bandwidth-estimator window.
	BandwidthWindow int
	// Estimator selects the bandwidth-estimator family; the zero value means
	// the paper's harmonic mean.
	Estimator predict.EstimatorKind
	// Viewport is the ridge-regression predictor setting.
	Viewport predict.ViewportConfig
	// Weights are the QoE weights (ω_v, ω_r).
	Weights qoe.Weights
	// RateSafety is the rate-based baseline's buffer-budget factor.
	RateSafety float64
	// QoECoeffs are the Eq. 3 coefficients (Table II).
	QoECoeffs vmaf.Coefficients
	// AlphaScale is the κ in α = κ·S_fov/TI (Eq. 4). The paper leaves the
	// effective scale of S_fov unspecified; κ is calibrated so the
	// controller's average QoE expenditure sits near the ε boundary, which
	// reproduces the published Ours-vs-Ptile gaps (≈20 % energy for ≤5 %
	// QoE, Figs. 9c/11c).
	AlphaScale float64
	// StrictViewportQoE blends the perceived quality down by the fraction of
	// the actually-viewed FoV left uncovered at high quality. The paper's
	// evaluation scores delivered segment quality (its rebuffering and
	// background-quality machinery handles viewing-interest changes), so
	// this is off by default; it exists for the viewport-sensitivity
	// ablation.
	StrictViewportQoE bool
	// RecordSegments fills Result.PerSegment with a per-segment trace for
	// timeline analysis (see WriteSegmentsCSV).
	RecordSegments bool
	// VersionHysteresis keeps the previous (v, f) version when it remains
	// feasible, within the ε quality floor, and within a few percent of the
	// fresh optimum's energy — trading a little energy for smoother quality
	// (lower I_v). Off by default: the paper's controller re-optimizes every
	// segment.
	VersionHysteresis bool
	// UseQoEMPC swaps Ours' energy-minimizing controller for the
	// QoE-maximizing MPC it descends from (Yin et al. [24]) — the
	// objective-swap ablation. Ignored for the baseline schemes.
	UseQoEMPC bool
}

// DefaultConfig returns the paper's evaluation setting for the given scheme
// and phone.
func DefaultConfig(scheme Scheme, phone power.Phone) (Config, error) {
	grid, err := geom.NewGrid(4, 8)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Scheme:          scheme,
		Phone:           phone,
		Encoder:         video.DefaultEncoderConfig(),
		Grid:            grid,
		FoVDeg:          100,
		SegmentSec:      1,
		BufferCapSec:    3,
		Horizon:         5,
		Epsilon:         0.05,
		BandwidthWindow: 5,
		Viewport:        predict.DefaultViewportConfig(),
		Weights:         qoe.DefaultWeights(),
		RateSafety:      0.9,
		QoECoeffs:       vmaf.TableII(),
		AlphaScale:      6.0,
	}
	if scheme == SchemeOurs {
		// {0, 10, 20, 30}% frame-rate reductions of the 30 fps source.
		cfg.FrameRates = []float64{30, 27, 24, 21}
	} else {
		cfg.FrameRates = []float64{cfg.Encoder.FrameRate}
	}
	return cfg, nil
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Scheme < SchemeCtile || c.Scheme > SchemeOurs {
		return fmt.Errorf("sim: unknown scheme %d", int(c.Scheme))
	}
	if err := c.Encoder.Validate(); err != nil {
		return err
	}
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if c.FoVDeg <= 0 || c.FoVDeg > 180 {
		return fmt.Errorf("sim: FoV %g outside (0, 180]", c.FoVDeg)
	}
	if c.SegmentSec <= 0 || c.BufferCapSec <= 0 {
		return fmt.Errorf("sim: non-positive timing (L %g, β %g)", c.SegmentSec, c.BufferCapSec)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("sim: non-positive horizon %d", c.Horizon)
	}
	if c.Epsilon < 0 || c.Epsilon >= 1 {
		return fmt.Errorf("sim: epsilon %g outside [0, 1)", c.Epsilon)
	}
	if len(c.FrameRates) == 0 {
		return fmt.Errorf("sim: no frame rates")
	}
	for _, f := range c.FrameRates {
		if f <= 0 || f > c.Encoder.FrameRate {
			return fmt.Errorf("sim: frame rate %g outside (0, %g]", f, c.Encoder.FrameRate)
		}
	}
	if c.BandwidthWindow <= 0 {
		return fmt.Errorf("sim: non-positive bandwidth window %d", c.BandwidthWindow)
	}
	if c.RateSafety <= 0 || c.RateSafety > 1 {
		return fmt.Errorf("sim: rate safety %g outside (0, 1]", c.RateSafety)
	}
	if c.AlphaScale <= 0 {
		return fmt.Errorf("sim: non-positive alpha scale %g", c.AlphaScale)
	}
	if err := c.Viewport.Validate(); err != nil {
		return err
	}
	return c.Weights.Validate()
}

// EnergyBreakdown accumulates Eq. 1 energy in mJ.
type EnergyBreakdown struct {
	Tx, Decode, Render float64
}

// Total returns the summed energy.
func (e EnergyBreakdown) Total() float64 { return e.Tx + e.Decode + e.Render }

// Result reports one streaming session.
type Result struct {
	// Scheme and Phone identify the configuration.
	Scheme Scheme
	Phone  power.Phone
	// VideoID and UserID identify the trace pair.
	VideoID, UserID int
	// Segments is the number of segments streamed.
	Segments int
	// Energy is the session's Eq. 1 energy.
	Energy EnergyBreakdown
	// QoE is the Eq. 2 session summary.
	QoE qoe.SessionSummary
	// BitsDownloaded is the total downloaded volume.
	BitsDownloaded float64
	// MeanQuality is the average chosen quality level.
	MeanQuality float64
	// MeanFrameRate is the average chosen frame rate.
	MeanFrameRate float64
	// PtileSegments counts segments served from a Ptile (vs fallback).
	PtileSegments int
	// ViewportHits counts segments whose actually-viewed area was fully
	// covered at the chosen quality.
	ViewportHits int
	// Emergencies counts segments downloaded in emergency (stall-accepting)
	// mode.
	Emergencies int
	// PerSegment holds the per-segment timeline when Config.RecordSegments
	// is set; nil otherwise.
	PerSegment []SegmentTrace
}

// session is the shared per-worker workspace behind both Run and the
// resumable Stepper: the (catalogue, config) runtime plus the recycled
// planning scratch. It holds no per-session state; compute and apply take
// the session's State (see step.go).
type session struct {
	// Pricer holds the config, catalogue, plan tables and FoV LUT.
	Pricer
	pm         power.Model
	mpc        *abr.EnergyMPC
	qoeMPC     *abr.QoEMPC
	rate       *abr.RateBased
	vp         *predict.ViewportPredictor
	planBufs   []segmentPlan
	optBufs    [][]abr.OptionMeta
	horizonBuf []abr.SegmentMeta
	// factorBuf holds a Ptile plan's Eq. 4 factor per frame rate.
	factorBuf []float64
	// ptileProc[fi] is P_d(f) + P_r(f) of the Ptile pipeline at
	// cfg.FrameRates[fi]: it depends only on the phone and f.
	ptileProc []float64
	// fetch is the step's download request and outcome. It lives here, not
	// on compute's stack, because passing it through the Link interface
	// would move it to the heap on every step.
	fetch Fetch
}

// Run streams the whole video for one evaluation user and returns the
// session accounting. It is the blocking-loop form of the resumable
// Stepper/State API: one stepper, one state, stepped to completion.
func Run(cat *Catalog, user *headtrace.Trace, net *lte.Trace, cfg Config) (*Result, error) {
	return run(cat, cfg, func(st *Stepper) (*State, error) { return st.NewState(user, net) })
}

// RunNetem is Run over the packet-level emulated network path: downloads
// resolve through pn's droptail link schedule instead of a per-second
// trace, and delay-aware estimators receive packet timing. pn must be
// fresh (its link clock starts at the session origin).
func RunNetem(cat *Catalog, user *headtrace.Trace, pn *netem.SessionNet, cfg Config) (*Result, error) {
	return run(cat, cfg, func(st *Stepper) (*State, error) { return st.NewStateNetem(user, pn) })
}

// run steps one session, bound by newState, to completion.
func run(cat *Catalog, cfg Config, newState func(*Stepper) (*State, error)) (*Result, error) {
	st, err := NewStepper(cat, cfg)
	if err != nil {
		return nil, err
	}
	state, err := newState(st)
	if err != nil {
		return nil, err
	}
	for {
		info, err := st.Step(state)
		if err != nil {
			return nil, err
		}
		if info.Done {
			break
		}
	}
	return st.Finish(state)
}

// predictViewport estimates the viewing center for segment k's playback
// midpoint from the head-movement history available at request time, when
// the buffer holds buffer seconds.
func (s *session) predictViewport(state *State, k int, buffer float64) geom.Point {
	// Playback position: seconds of video already watched.
	played := float64(k)*s.cfg.SegmentSec - buffer
	if played < 0 {
		played = 0
	}
	idx := int(played * headtrace.SampleRate)
	if idx < 2 {
		return geom.PointOf(state.user.Samples[0].O)
	}
	if idx > len(state.xs) {
		idx = len(state.xs)
	}
	horizon := (float64(k)+0.5)*s.cfg.SegmentSec - played
	if horizon < 0 {
		horizon = 0
	}
	// Cap the extrapolation horizon: a linear slope extrapolated several
	// buffer-lengths ahead overshoots wildly; beyond ~1 s the user's current
	// region is the better predictor (the buffer is small, Section IV-B).
	if horizon > 1 {
		horizon = 1
	}
	if s.vp == nil {
		return geom.PointOf(state.user.Samples[idx-1].O)
	}
	p, err := s.vp.Predict(state.xs[:idx], state.ys[:idx], horizon)
	if err != nil {
		return geom.PointOf(state.user.Samples[idx-1].O)
	}
	return p
}

// recentSwitchingSpeed estimates S_fov from the most recently played
// segment, using the within-segment peak (see SegmentPeakSpeed): the Eq. 4
// blurred-vision tolerance applies when the segment contains a fast switch.
func (s *session) recentSwitchingSpeed(user *headtrace.Trace, k int) float64 {
	if k == 0 {
		return 0
	}
	sp, err := user.SegmentPeakSpeed(k-1, s.cfg.SegmentSec)
	if err != nil {
		return 0
	}
	return sp
}

// bestQuality returns the highest perceived quality among the options.
func bestQuality(options []abr.OptionMeta) float64 {
	var best float64
	for _, o := range options {
		if o.PerceivedQuality > best {
			best = o.PerceivedQuality
		}
	}
	return best
}

// applyHysteresis returns the previous segment's (v, f) version prev when it
// is offered, downloads safely within buffer seconds, still satisfies the ε
// QoE floor against the best currently downloadable version (so it cannot
// ratchet quality down), and costs at most a few percent more energy than
// the DP's fresh choice.
func (s *session) applyHysteresis(options []abr.OptionMeta, chosen abr.OptionMeta, rateEst, buffer float64, prev abr.Option) abr.OptionMeta {
	const margin = 1.03
	var qMax float64
	for _, o := range options {
		if o.SizeBits/rateEst <= buffer && o.PerceivedQuality > qMax {
			qMax = o.PerceivedQuality
		}
	}
	for _, o := range options {
		if o.Option != prev {
			continue
		}
		if o.SizeBits/rateEst > buffer {
			return chosen
		}
		if o.PerceivedQuality < (1-s.cfg.Epsilon)*qMax {
			return chosen
		}
		prevCost := s.pm.Tx*o.SizeBits/rateEst + o.ProcPowerMW*s.cfg.SegmentSec
		chosenCost := s.pm.Tx*chosen.SizeBits/rateEst + chosen.ProcPowerMW*s.cfg.SegmentSec
		if prevCost <= chosenCost*margin {
			return o
		}
		return chosen
	}
	return chosen
}
