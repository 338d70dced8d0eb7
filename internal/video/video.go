// Package video models the server-side 360° video: segments, tiles, the
// encoding ladder, per-video content profiles (SI/TI), and the analytical
// encoder size model that stands in for FFmpeg/x264 (see DESIGN.md §2).
//
// The size model has three mechanisms, each matching a physical cause the
// paper names:
//
//  1. Content bits scale with covered area and ladder bitrate, jittered per
//     segment by a lognormal content-complexity factor driven by SI/TI.
//  2. Every independently decodable tile pays a fixed overhead (its own
//     keyframe, headers, and lost inter-tile prediction context) — the
//     reason many small tiles are inefficient (paper Section I).
//  3. Merging tiles into one large encode (a Ptile, a background block, or
//     the whole panorama) compresses the content better than the tile grid.
//     The merge-efficiency curve is quality-dependent and calibrated
//     directly from the paper's measured Fig. 8 Ptile/Ctile size ratios
//     (62/57/47/35/27 % at quality 5..1) — published measurement data used
//     as model input, per the substitution policy in DESIGN.md §2.
package video

import (
	"fmt"
	"math"

	"ptile360/internal/geom"
)

// Quality is an encoding quality level, 1 (lowest) through 5 (highest),
// corresponding to x264 CRF 38, 33, 28, 23, 18 in the paper.
type Quality int

// Quality bounds.
const (
	MinQuality Quality = 1
	MaxQuality Quality = 5
)

// CRF returns the x264 constant rate factor the paper assigns to q
// (CRF 38..18 in steps of 5, Section V-A).
func (q Quality) CRF() (int, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	return 38 - 5*(int(q)-1), nil
}

// Validate reports whether q is a legal quality level.
func (q Quality) Validate() error {
	if q < MinQuality || q > MaxQuality {
		return fmt.Errorf("video: quality %d outside [%d, %d]", q, MinQuality, MaxQuality)
	}
	return nil
}

// PanoramaArea is the full equirectangular area in square degrees.
const PanoramaArea = 360.0 * 180.0

// TileKind selects the encode structure of a requested rectangle, which
// determines its merge efficiency.
type TileKind int

// Tile kinds.
const (
	// KindGrid is one conventional grid tile (no merge gain).
	KindGrid TileKind = iota + 1
	// KindPtile is a popularity tile: several grid tiles encoded as one,
	// with the calibrated Fig. 8 merge-efficiency curve.
	KindPtile
	// KindBlock is a low-quality background block (large strip outside the
	// Ptile); it merges like a Ptile.
	KindBlock
	// KindPanorama is the whole panorama encoded as one stream (the Nontile
	// scheme); large but not viewport-focused, with a flat efficiency gain.
	KindPanorama
	// KindFtile is one variable-size tile of the Ftile baseline: a cluster
	// of grid blocks encoded together. Irregular shape costs it half the
	// merge gain of a rectangular Ptile.
	KindFtile
)

// String implements fmt.Stringer.
func (k TileKind) String() string {
	switch k {
	case KindGrid:
		return "grid"
	case KindPtile:
		return "ptile"
	case KindBlock:
		return "block"
	case KindPanorama:
		return "panorama"
	case KindFtile:
		return "ftile"
	default:
		return fmt.Sprintf("TileKind(%d)", int(k))
	}
}

// EncoderConfig holds the calibrated constants of the analytical encoder.
type EncoderConfig struct {
	// BaseDensity is the panorama-wide content bitrate (bits per second) at
	// ladder multiplier 1.0 for a video of reference complexity.
	BaseDensity float64
	// Ladder maps quality level v (index v−1) to its bitrate multiplier.
	Ladder [5]float64
	// TileOverheadBits is the fixed per-tile cost per segment: keyframe,
	// container headers, and lost prediction context.
	TileOverheadBits float64
	// MergeEff maps quality level v (index v−1) to the content-bits
	// multiplier (< 1) a merged encode (Ptile/block) achieves over the same
	// area as separate grid tiles. Calibrated from Fig. 8.
	MergeEff [5]float64
	// PanoramaEff is the flat content multiplier of a whole-panorama single
	// encode (Nontile).
	PanoramaEff float64
	// FrameRateExponent controls how content bits shrink when frames are
	// dropped: bits ∝ (f/fMax)^FrameRateExponent. Below 1 because dropped
	// P-frames are cheaper than average frames.
	FrameRateExponent float64
	// JitterSigma is the lognormal σ of the per-segment content factor.
	JitterSigma float64
	// FrameRate is the source frame rate in frames per second.
	FrameRate float64
}

// DefaultEncoderConfig returns the calibration used throughout the paper
// reproduction (4K @ 30 fps source).
//
// MergeEff is solved from the Fig. 8 median ratios r = {0.27, 0.35, 0.47,
// 0.57, 0.62} for the nine-tile FoV at reference complexity:
//
//	eff(v) = (r(v)·(C(v) + 9·o) − o) / C(v),  C(v) = D·m(v)·0.28125
//
// with per-tile overhead o = 0.005·D (≈ 3.75 kB keyframe per tile per
// second).
func DefaultEncoderConfig() EncoderConfig {
	return EncoderConfig{
		BaseDensity:       6e6,
		Ladder:            [5]float64{0.25, 0.7, 1.2, 2.0, 3.2},
		TileOverheadBits:  0.005 * 6e6,
		MergeEff:          [5]float64{0.371, 0.405, 0.518, 0.607, 0.645},
		PanoramaEff:       0.85,
		FrameRateExponent: 0.8,
		JitterSigma:       0.18,
		FrameRate:         30,
	}
}

// Validate reports whether the configuration is usable.
func (c EncoderConfig) Validate() error {
	if c.BaseDensity <= 0 {
		return fmt.Errorf("video: non-positive base density %g", c.BaseDensity)
	}
	prev := 0.0
	for i, m := range c.Ladder {
		if m <= prev {
			return fmt.Errorf("video: ladder multiplier %g at level %d not increasing", m, i+1)
		}
		prev = m
	}
	for i, e := range c.MergeEff {
		if e <= 0 || e > 1 {
			return fmt.Errorf("video: merge efficiency %g at level %d outside (0, 1]", e, i+1)
		}
	}
	if c.TileOverheadBits < 0 {
		return fmt.Errorf("video: negative tile overhead %g", c.TileOverheadBits)
	}
	if c.PanoramaEff <= 0 || c.PanoramaEff > 1 {
		return fmt.Errorf("video: panorama efficiency %g outside (0, 1]", c.PanoramaEff)
	}
	if c.FrameRateExponent <= 0 || c.FrameRateExponent > 1 {
		return fmt.Errorf("video: frame-rate exponent %g outside (0, 1]", c.FrameRateExponent)
	}
	if c.FrameRate <= 0 {
		return fmt.Errorf("video: non-positive frame rate %g", c.FrameRate)
	}
	return nil
}

// Multiplier returns the ladder bitrate multiplier for quality q.
func (c EncoderConfig) Multiplier(q Quality) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	return c.Ladder[int(q)-1], nil
}

// QoEBitrateMbps returns the bitrate b (Mbps) fed into the Eq. 3 quality
// model for viewport quality level q. The scale is calibrated so the
// Table II logistic spans the quasi-linear VMAF range of the paper's
// Fig. 4b (Q ≈ 27..90 across the five ladder levels at reference content):
// every ladder step is perceptually visible, so the ε = 5 % constraint (8c)
// pins the bitrate level at the highest downloadable one and the controller
// spends its tolerance on frame rate — matching the paper's Ours-vs-Ptile
// behaviour.
func (c EncoderConfig) QoEBitrateMbps(q Quality) (float64, error) {
	m, err := c.Multiplier(q)
	if err != nil {
		return 0, err
	}
	const qoeScale = 0.35
	return c.BaseDensity * m * qoeScale / 1e6, nil
}

// SegmentContent captures the per-segment content characteristics drawn from
// a video's profile: ITU-T P.910 spatial (SI) and temporal (TI) perceptual
// information and the lognormal size-jitter factor.
type SegmentContent struct {
	SI, TI float64
	// Jitter is the multiplicative content-size factor, mean ≈ 1.
	Jitter float64
}

// contentScale converts SI/TI into a relative content-bits multiplier: more
// spatial detail and more motion both cost bits. Normalized to 1.0 at the
// reference complexity (SI 50, TI 25).
func contentScale(si, ti float64) float64 {
	const refSI, refTI = 50.0, 25.0
	s := 0.6 + 0.4*si/refSI
	t := 0.7 + 0.3*ti/refTI
	return s * t
}

// TileSpec describes one encoded rectangle request.
type TileSpec struct {
	// Rect is the panorama area the tile covers.
	Rect geom.Rect
	// Quality is the encoding quality level.
	Quality Quality
	// FrameRate is the encoded frame rate in fps; 0 means the source rate.
	FrameRate float64
	// Kind selects the encode structure; zero value means KindGrid.
	Kind TileKind
}

// TileBits returns the encoded size in bits of a single tile per spec, for a
// segment of duration l seconds with content sc.
func (c EncoderConfig) TileBits(spec TileSpec, l float64, sc SegmentContent) (float64, error) {
	if err := spec.Rect.Validate(); err != nil {
		return 0, err
	}
	return c.RegionBits(spec.Rect.Area()/PanoramaArea, spec.Quality, spec.FrameRate, spec.Kind, l, sc)
}

// RegionBits returns the encoded size in bits of an arbitrary region
// covering areaFrac of the panorama, encoded at quality q and frame rate f
// (0 means the source rate) with structure kind, for a segment of duration
// l seconds with content sc. TileBits delegates here; irregular regions
// (Ftile groups) call it directly.
func (c EncoderConfig) RegionBits(areaFrac float64, q Quality, f float64, kind TileKind, l float64, sc SegmentContent) (float64, error) {
	if areaFrac <= 0 || areaFrac > 1 {
		return 0, fmt.Errorf("video: area fraction %g outside (0, 1]", areaFrac)
	}
	m, err := c.Multiplier(q)
	if err != nil {
		return 0, err
	}
	if l <= 0 {
		return 0, fmt.Errorf("video: non-positive segment duration %g", l)
	}
	if f == 0 {
		f = c.FrameRate
	}
	if f <= 0 || f > c.FrameRate {
		return 0, fmt.Errorf("video: frame rate %g outside (0, %g]", f, c.FrameRate)
	}
	if kind == 0 {
		kind = KindGrid
	}
	var eff float64
	switch kind {
	case KindGrid:
		eff = 1
	case KindPtile, KindBlock:
		eff = c.MergeEff[int(q)-1]
	case KindPanorama:
		eff = c.PanoramaEff
	case KindFtile:
		eff = (1 + c.MergeEff[int(q)-1]) / 2
	default:
		return 0, fmt.Errorf("video: unknown tile kind %v", kind)
	}
	content := c.BaseDensity * m * areaFrac * l * contentScale(sc.SI, sc.TI) * sc.Jitter * eff
	content *= math.Pow(f/c.FrameRate, c.FrameRateExponent)
	return content + c.TileOverheadBits, nil
}
