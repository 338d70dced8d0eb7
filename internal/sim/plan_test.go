package sim

import (
	"math"
	"testing"

	"ptile360/internal/geom"
	"ptile360/internal/power"
)

// TestPlanQualitySplitBitIdentical pins the factored quality model — tabled
// Q₀ times one Eq. 4 factor per (plan, frame rate) — to the one-call form:
// every option of a segment plan and of its MPC horizon plans carries
// exactly vmaf's PerceivedQuality, and exactly P_d(f) + P_r(f) of the plan's
// decode pipeline, on Float64bits. It covers both fixtures, every scheme,
// switching speeds from 0 up, viewport centers that hit a Ptile and ones
// that fall back, and both the tabled and the direct reference path.
func TestPlanQualitySplitBitIdentical(t *testing.T) {
	forEachFixture(t, func(t *testing.T, fx *testFixture) {
		speeds := []float64{0, 0.5, 3, 17.25, 60, 240}
		for _, tables := range []bool{true, false} {
			for _, scheme := range Schemes() {
				disablePlanTables = !tables
				cfg, err := DefaultConfig(scheme, power.Pixel3)
				if err != nil {
					t.Fatal(err)
				}
				st, err := NewStepper(fx.cat, cfg)
				disablePlanTables = false
				if err != nil {
					t.Fatal(err)
				}
				s := &st.s
				if (s.tab != nil) != tables {
					t.Fatalf("%v: plan tables present = %v, want %v", scheme, s.tab != nil, tables)
				}
				pm, err := power.TableI(cfg.Phone)
				if err != nil {
					t.Fatal(err)
				}
				check := func(k int, plan *segmentPlan, speed float64) {
					t.Helper()
					sc := fx.cat.Content[k]
					decode := scheme.decodeScheme()
					if plan.fallback {
						decode = power.Ctile
					}
					for _, o := range plan.options {
						b, err := cfg.Encoder.QoEBitrateMbps(o.Quality)
						if err != nil {
							t.Fatal(err)
						}
						want, err := cfg.QoECoeffs.PerceivedQuality(sc.SI, sc.TI, b, speed*cfg.AlphaScale, o.FrameRate, cfg.Encoder.FrameRate)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(o.PerceivedQuality) != math.Float64bits(want) {
							t.Fatalf("%v tables=%v seg %d speed %g option %+v: quality %v, PerceivedQuality %v",
								scheme, tables, k, speed, o.Option, o.PerceivedQuality, want)
						}
						wantProc := pm.Decode[decode].At(o.FrameRate) + pm.Render.At(o.FrameRate)
						if math.Float64bits(o.ProcPowerMW) != math.Float64bits(wantProc) {
							t.Fatalf("%v tables=%v seg %d option %+v: power %v, want %v",
								scheme, tables, k, o.Option, o.ProcPowerMW, wantProc)
						}
					}
				}
				rates := map[float64]bool{}
				var fallbacks, ptilePlans int
				for k := 0; k < len(fx.cat.Content); k += 7 {
					viewed, err := fx.eval[0].ViewingCenter(k, cfg.SegmentSec)
					if err != nil {
						t.Fatal(err)
					}
					for _, center := range []geom.Point{viewed, {X: 0, Y: 2}, {X: 200, Y: 175}} {
						for _, speed := range speeds {
							plan, err := s.segmentPlan(k, 0, center, speed)
							if err != nil {
								t.Fatal(err)
							}
							check(k, plan, speed)
							for _, o := range plan.options {
								rates[o.FrameRate] = true
							}
							if plan.fallback {
								fallbacks++
							} else if plan.chosenPtile != nil {
								ptilePlans++
							}
							if scheme != SchemeOurs {
								continue
							}
							horizon, err := s.horizonPlans(k, center, speed, plan)
							if err != nil {
								t.Fatal(err)
							}
							for i := 1; i < len(horizon); i++ {
								check(k+i, &s.planBufs[i], speed)
							}
						}
					}
					if _, err := s.segmentPlan(k, 0, viewed, -1); err == nil {
						t.Fatalf("%v tables=%v seg %d: negative switching speed accepted", scheme, tables, k)
					}
				}
				if scheme == SchemeOurs && len(rates) != len(cfg.FrameRates) {
					t.Fatalf("Ours plans offered frame rates %v, want all of %v", rates, cfg.FrameRates)
				}
				if (scheme == SchemePtile || scheme == SchemeOurs) && (fallbacks == 0 || ptilePlans == 0) {
					t.Fatalf("%v: %d Ptile plans and %d fallbacks; the centers must exercise both", scheme, ptilePlans, fallbacks)
				}
			}
		}
	})
}
