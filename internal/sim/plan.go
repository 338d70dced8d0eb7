package sim

import (
	"fmt"
	"math"

	"ptile360/internal/abr"
	"ptile360/internal/geom"
	"ptile360/internal/headtrace"
	"ptile360/internal/power"
	"ptile360/internal/ptile"
	"ptile360/internal/video"
	"ptile360/internal/vmaf"
)

// segmentPlan is the request structure for one segment: the quality-version
// options offered to the controller plus what they cover. Plans live in the
// session's recycled per-slot buffers (planBuf), so steady-state planning
// allocates neither the struct nor its coverage bookkeeping.
type segmentPlan struct {
	// options are the downloadable versions.
	options []abr.OptionMeta
	// chosenPtile is the serving Ptile (Ptile/Ours schemes, nil on
	// fallback), and ptile its index into the catalogue's Ptiles[k] (-1
	// without one).
	chosenPtile *ptile.Ptile
	ptile       int
	// hqSet is the high-quality grid-tile set (Ctile and fallback).
	hqSet geom.TileSet
	// hqGroups marks the high-quality Ftile groups by index, valid when
	// hasHQGroups. The slice is recycled across plans.
	hqGroups    []bool
	hasHQGroups bool
	// fallback reports that a Ptile scheme had no covering Ptile and
	// reverted to conventional tiles for this segment.
	fallback bool
}

// segmentPlan builds the request options for segment k given the predicted
// viewing center and the estimated switching speed. slot selects the
// session's recycled options buffer (0 for the requested segment, 1..H−1
// for MPC horizon look-ahead), so steady-state planning allocates no new
// option storage.
func (s *session) segmentPlan(k, slot int, predCenter geom.Point, speedEst float64) (*segmentPlan, error) {
	sc := s.cat.Content[k]
	switch s.cfg.Scheme {
	case SchemeCtile:
		return s.ctilePlan(k, slot, predCenter, speedEst, sc)
	case SchemeFtile:
		return s.ftilePlan(k, slot, predCenter, speedEst, sc)
	case SchemeNontile:
		return s.nontilePlan(k, slot, speedEst, sc)
	case SchemePtile, SchemeOurs:
		return s.ptilePlan(k, slot, predCenter, speedEst, sc, false)
	default:
		return nil, fmt.Errorf("sim: unknown scheme %v", s.cfg.Scheme)
	}
}

// optionBuf returns scratch slot's recycled options slice resized to n,
// growing its storage when needed. One slot is live per horizon position, so
// after the first few decisions option storage is allocation-free.
func (s *session) optionBuf(slot, n int) []abr.OptionMeta {
	for slot >= len(s.optBufs) {
		s.optBufs = append(s.optBufs, nil)
	}
	if cap(s.optBufs[slot]) < n {
		s.optBufs[slot] = make([]abr.OptionMeta, n)
	}
	return s.optBufs[slot][:n]
}

// setOption fills one option in place. OptionMeta is too large to live in
// registers, so appending a composite literal builds it on the stack and
// copies it with wide loads that stall on the narrow stores just made;
// assigning the fields directly does neither.
func setOption(o *abr.OptionMeta, v video.Quality, f, sizeBits, q, procMW float64) {
	o.Quality, o.FrameRate = v, f
	o.SizeBits, o.PerceivedQuality, o.ProcPowerMW = sizeBits, q, procMW
}

// planBuf returns the recycled segmentPlan for scratch slot i, cleared of the
// previous decision while keeping grown buffers. Slots 0..Horizon are
// preallocated; a larger slot (which no current caller produces) gets a fresh
// struct rather than growing the array under live pointers.
func (s *session) planBuf(slot int) *segmentPlan {
	if slot >= len(s.planBufs) {
		return &segmentPlan{ptile: -1}
	}
	p := &s.planBufs[slot]
	p.options = nil
	p.chosenPtile = nil
	p.ptile = -1
	p.hqSet = geom.TileSet{}
	p.hqGroups = p.hqGroups[:0]
	p.hasHQGroups = false
	p.fallback = false
	return p
}

// The perceived quality Q(v, f) = Q₀(v)·F(α, f) (Eq. 3 × Eq. 4) factors by
// axis: Q₀ depends only on the segment's content and the quality v, so it
// is tabled per catalogue (planTables.q0), and F depends only on α (the
// switching speed over the segment's TI) and the frame rate f, so a plan
// evaluates α once and F once per f rather than both once per option. Each
// factor comes from the same vmaf call PerceivedQuality makes (F through
// the FrameRateCurve that FrameRateFactor itself evaluates), and
// q0 * factor is the product it returns, so every option's quality is
// bit-identical to the one-call form.

// directQ0 is Eq. 3's Q₀ of content sc at quality v, computed with the calls
// PerceivedQuality makes.
func directQ0(cfg *Config, sc video.SegmentContent, v video.Quality) (float64, error) {
	b, err := cfg.Encoder.QoEBitrateMbps(v)
	if err != nil {
		return 0, err
	}
	return cfg.QoECoeffs.Q0(sc.SI, sc.TI, b)
}

// q0 returns segment k's Q₀ at quality v: tabled, or computed directly on
// the reference path.
func (s *session) q0(k int, v video.Quality) (float64, error) {
	if s.tab != nil {
		return s.tab.q0[k][int(v)-1], nil
	}
	return directQ0(&s.cfg, s.cat.Content[k], v)
}

// rateCurve is Eq. 4's frame-rate factor F(α, ·) for content sc at the
// given switching speed. The speed is scaled by AlphaScale, implementing
// α = κ·S_fov/TI (see Config.AlphaScale).
func (s *session) rateCurve(sc video.SegmentContent, speed float64) (vmaf.FrameRateCurve, error) {
	alpha, err := vmaf.Alpha(speed*s.cfg.AlphaScale, sc.TI)
	if err != nil {
		return vmaf.FrameRateCurve{}, err
	}
	return vmaf.NewFrameRateCurve(alpha, s.fm)
}

// rateFactor is rateCurve evaluated at one frame rate f.
func (s *session) rateFactor(sc video.SegmentContent, speed, f float64) (float64, error) {
	curve, err := s.rateCurve(sc, speed)
	if err != nil {
		return 0, err
	}
	return curve.At(f)
}

// quality evaluates the perceived quality Q(v, f) of segment k at the given
// switching speed.
func (s *session) quality(k int, v video.Quality, f, speed float64) (float64, error) {
	q0, err := s.q0(k, v)
	if err != nil {
		return 0, err
	}
	factor, err := s.rateFactor(s.cat.Content[k], speed, f)
	if err != nil {
		return 0, err
	}
	return q0 * factor, nil
}

// procPower returns P_d(f) + P_r(f) for the given decode pipeline.
func (s *session) procPower(scheme power.Scheme, f float64) (float64, error) {
	dec, ok := s.pm.Decode[scheme]
	if !ok {
		return 0, fmt.Errorf("sim: no decode model for %v", scheme)
	}
	return dec.At(f) + s.pm.Render.At(f), nil
}

// ctilePlan: nine FoV grid tiles at quality v, the rest at the lowest
// quality, one option per v at the source frame rate.
func (s *session) ctilePlan(k, slot int, predCenter geom.Point, speedEst float64, sc video.SegmentContent) (*segmentPlan, error) {
	plan := s.planBuf(slot)
	plan.hqSet = s.lut.SetAt(predCenter)
	nHQ := plan.hqSet.Count()
	proc, err := s.procPower(power.Ctile, s.fm)
	if err != nil {
		return nil, err
	}
	factor, err := s.rateFactor(sc, speedEst, s.fm)
	if err != nil {
		return nil, err
	}
	plan.options = s.optionBuf(slot, numQualities)
	for v := video.MinQuality; v <= video.MaxQuality; v++ {
		bits, err := s.ctileBits(k, v, nHQ)
		if err != nil {
			return nil, err
		}
		q0, err := s.q0(k, v)
		if err != nil {
			return nil, err
		}
		setOption(&plan.options[int(v)-1], v, s.fm, bits, q0*factor, proc)
	}
	return plan, nil
}

// ftilePlan: the variable-size groups intersecting the predicted FoV at
// quality v, the rest at the lowest quality.
func (s *session) ftilePlan(k, slot int, predCenter geom.Point, speedEst float64, sc video.SegmentContent) (*segmentPlan, error) {
	groups := s.cat.Ftiles[k]
	plan := s.planBuf(slot)
	hq := plan.hqGroups
	// A group is high-quality iff its tile mask meets the FoV mask.
	fovSet := s.lut.SetAt(predCenter)
	for gi := range groups {
		hq = append(hq, fovSet.Intersects(s.ftileSet(k, gi)))
	}
	plan.hqGroups = hq
	plan.hasHQGroups = true
	proc, err := s.procPower(power.Ftile, s.fm)
	if err != nil {
		return nil, err
	}
	factor, err := s.rateFactor(sc, speedEst, s.fm)
	if err != nil {
		return nil, err
	}
	groupBits := func(gi int, g FtileGroup, q video.Quality) (float64, error) {
		if s.tab != nil {
			return s.tab.ftileBits[k][gi][int(q)-1], nil
		}
		return s.cfg.Encoder.RegionBits(g.AreaFrac, q, s.fm, video.KindFtile, s.cfg.SegmentSec, sc)
	}
	plan.options = s.optionBuf(slot, numQualities)
	for v := video.MinQuality; v <= video.MaxQuality; v++ {
		var total float64
		for gi, g := range groups {
			q := video.MinQuality
			if hq[gi] {
				q = v
			}
			bits, err := groupBits(gi, g, q)
			if err != nil {
				return nil, err
			}
			total += bits
		}
		q0, err := s.q0(k, v)
		if err != nil {
			return nil, err
		}
		setOption(&plan.options[int(v)-1], v, s.fm, total, q0*factor, proc)
	}
	return plan, nil
}

// nontilePlan: the whole panorama at quality v.
func (s *session) nontilePlan(k, slot int, speedEst float64, sc video.SegmentContent) (*segmentPlan, error) {
	proc, err := s.procPower(power.Nontile, s.fm)
	if err != nil {
		return nil, err
	}
	factor, err := s.rateFactor(sc, speedEst, s.fm)
	if err != nil {
		return nil, err
	}
	plan := s.planBuf(slot)
	plan.options = s.optionBuf(slot, numQualities)
	for v := video.MinQuality; v <= video.MaxQuality; v++ {
		var bits float64
		if s.tab != nil {
			bits = s.tab.panoramaBits[k][int(v)-1]
		} else {
			bits, err = s.cfg.Encoder.RegionBits(1, v, s.fm, video.KindPanorama, s.cfg.SegmentSec, sc)
			if err != nil {
				return nil, err
			}
		}
		q0, err := s.q0(k, v)
		if err != nil {
			return nil, err
		}
		setOption(&plan.options[int(v)-1], v, s.fm, bits, q0*factor, proc)
	}
	return plan, nil
}

// ptilePlan: the covering Ptile at (v, f) plus low-quality background
// blocks; falls back to conventional tiles when no Ptile covers the
// predicted viewport. preferLargest selects the most popular Ptile instead
// of the viewport-covering one (used for horizon approximation).
func (s *session) ptilePlan(k, slot int, predCenter geom.Point, speedEst float64, sc video.SegmentContent, preferLargest bool) (*segmentPlan, error) {
	pt, pi := s.coveringPtile(k, predCenter)
	if pt == nil && preferLargest && len(s.cat.Ptiles[k]) > 0 {
		pt, pi = &s.cat.Ptiles[k][0], 0
	}
	if pt == nil {
		// Section IV-B: no covering Ptile → conventional tiles at the best
		// possible quality, decoded with the conventional pipeline.
		plan, err := s.ctilePlan(k, slot, predCenter, speedEst, sc)
		if err != nil {
			return nil, err
		}
		plan.fallback = true
		return plan, nil
	}

	sizes, err := s.ptileSizes(k, pi)
	if err != nil {
		return nil, err
	}
	// Eq. 4's factor once per frame rate: α is shared by the whole plan.
	curve, err := s.rateCurve(sc, speedEst)
	if err != nil {
		return nil, err
	}
	factors := s.factorBuf[:0]
	for _, f := range s.cfg.FrameRates {
		factor, err := curve.At(f)
		if err != nil {
			return nil, err
		}
		factors = append(factors, factor)
	}
	s.factorBuf = factors

	plan := s.planBuf(slot)
	plan.chosenPtile, plan.ptile = pt, pi
	nRates := len(s.cfg.FrameRates)
	plan.options = s.optionBuf(slot, numQualities*nRates)
	for v := video.MinQuality; v <= video.MaxQuality; v++ {
		q0, err := s.q0(k, v)
		if err != nil {
			return nil, err
		}
		for fi, f := range s.cfg.FrameRates {
			setOption(&plan.options[(int(v)-1)*nRates+fi], v, f, sizes[int(v)-1][fi], q0*factors[fi], s.ptileProc[fi])
		}
	}
	return plan, nil
}

// coveringPtile returns the catalogue Ptile of segment k serving a viewer
// predicted at center, plus its index into cat.Ptiles[k] (for the
// precomputed size tables): the smallest Ptile fully covering the FoV
// block, or — when prediction noise pushes the block edge outside every
// Ptile — the largest Ptile still containing the center itself (the viewer
// then gets partial high-quality coverage rather than a full conventional
// fallback).
func (s *session) coveringPtile(k int, center geom.Point) (*ptile.Ptile, int) {
	var best *ptile.Ptile
	bestIdx := -1
	bestArea := math.Inf(1)
	// "Every FoV tile center inside the rect" is exactly "FoV mask ⊆
	// rect-coverage mask".
	fovSet := s.lut.SetAt(center)
	for i := range s.cat.Ptiles[k] {
		pt := &s.cat.Ptiles[k][i]
		if mask := s.ptileSet(k, i); mask.ContainsAll(fovSet) && pt.Rect.Area() < bestArea {
			best, bestIdx, bestArea = pt, i, pt.Rect.Area()
		}
	}
	if best != nil {
		return best, bestIdx
	}
	bestArea = 0
	for i := range s.cat.Ptiles[k] {
		pt := &s.cat.Ptiles[k][i]
		if pt.Rect.Contains(center) && pt.Rect.Area() > bestArea {
			best, bestIdx, bestArea = pt, i, pt.Rect.Area()
		}
	}
	return best, bestIdx
}

// horizonPlans assembles the MPC horizon: segment k's actual plan followed
// by approximate plans for k+1..k+H−1 using the current viewport prediction
// (far-future predictions are unreliable, so popular Ptiles stand in). The
// look-ahead plans use option slots 1..H−1 and the horizon slice is
// recycled across decisions.
func (s *session) horizonPlans(k int, predCenter geom.Point, speedEst float64, first *segmentPlan) ([]abr.SegmentMeta, error) {
	out := append(s.horizonBuf[:0], abr.SegmentMeta{Options: first.options})
	for i := k + 1; i < k+s.cfg.Horizon && i < len(s.cat.Content); i++ {
		plan, err := s.ptilePlan(i, 1+(i-k-1), predCenter, speedEst, s.cat.Content[i], true)
		if err != nil {
			return nil, err
		}
		out = append(out, abr.SegmentMeta{Options: plan.options})
	}
	s.horizonBuf = out
	return out, nil
}

// perceivedQuality determines what the user experienced for segment k: the
// delivered quality Q(v, f) evaluated at the actual switching speed. With
// StrictViewportQoE the quality is additionally blended down by the
// uncovered fraction of the actually-viewed FoV block (a slightly-off
// viewport prediction degrades the edge of the view, not the whole frame).
// hit reports full coverage either way.
func (s *session) perceivedQuality(user *headtrace.Trace, k int, plan *segmentPlan, chosen abr.OptionMeta) (q0 float64, hit bool, err error) {
	actual, err := user.ViewingCenter(k, s.cfg.SegmentSec)
	if err != nil {
		return 0, false, err
	}
	actualSpeed, err := user.SegmentPeakSpeed(k, s.cfg.SegmentSec)
	if err != nil {
		actualSpeed = 0
	}
	frac := s.coverageFraction(k, plan, actual)

	qHigh, err := s.quality(k, chosen.Quality, chosen.FrameRate, actualSpeed)
	if err != nil {
		return 0, false, err
	}
	if !s.cfg.StrictViewportQoE {
		return qHigh, frac >= 1, nil
	}
	qLow, err := s.quality(k, video.MinQuality, s.fm, actualSpeed)
	if err != nil {
		return 0, false, err
	}
	return frac*qHigh + (1-frac)*qLow, frac >= 1, nil
}

// coverageFraction returns the fraction of the actually-viewed FoV tile
// block that the downloaded high-quality region covers.
func (s *session) coverageFraction(k int, plan *segmentPlan, actual geom.Point) float64 {
	if s.cfg.Scheme == SchemeNontile {
		return 1
	}
	fov := s.lut.SetAt(actual)
	var hq geom.TileSet
	switch {
	case plan.chosenPtile != nil:
		hq = s.ptileSet(k, plan.ptile)
	case plan.hasHQGroups:
		for gi := range s.cat.Ftiles[k] {
			if plan.hqGroups[gi] {
				hq.Union(s.ftileSet(k, gi))
			}
		}
	default:
		hq = plan.hqSet
	}
	return float64(hq.CountIn(fov)) / float64(fov.Count())
}
