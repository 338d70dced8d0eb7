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

// fetchRecorder is a pass-through link that records, for every fetch, the
// segment, the serving Ptile and the predicted center the plan was built
// for.
type fetchRecorder struct {
	scriptedLink
	fetches []Fetch
}

func (l *fetchRecorder) Download(f *Fetch) error {
	l.fetches = append(l.fetches, Fetch{Segment: f.Segment, Ptile: f.Ptile, Center: f.Center})
	return l.scriptedLink.Download(f)
}

// expectedPtile recomputes the Ptile that should serve segment k for a
// viewer predicted at center, from the Ptile rects in predicate form: a
// Ptile covers the FoV when every FoV tile's centre lies inside its rect.
// The smallest covering Ptile serves, the first of equal areas; else the
// largest rect containing the center itself; else none (-1, conventional
// tiles). It also returns how many Ptiles cover and the first that does.
func expectedPtile(cfg Config, cat *Catalog, k int, center geom.Point) (want, covering, first int) {
	pts := cat.Ptiles[k]
	want, first = -1, -1
	fov := cfg.Grid.FoVTiles(center, cfg.FoVDeg, cfg.FoVDeg)
	for i, pt := range pts {
		covers := true
		for _, tile := range fov {
			covers = covers && pt.Rect.Contains(cfg.Grid.TileRect(tile).Center())
		}
		if !covers {
			continue
		}
		if covering++; first < 0 {
			first = i
		}
		if want < 0 || pt.Rect.Area() < pts[want].Rect.Area() {
			want = i
		}
	}
	if want >= 0 {
		return want, covering, first
	}
	for i, pt := range pts {
		if pt.Rect.Contains(center) && (want < 0 || pt.Rect.Area() > pts[want].Rect.Area()) {
			want = i
		}
	}
	return want, covering, first
}

// TestPtileSegmentsServedBySmallestCoveringPtile checks, on the fixture
// that chooses among Ptiles, that every Ptile and Ours fetch is served by
// the Ptile expectedPtile picks for the fetch's predicted center. Both plan
// paths share coveringPtile, so no differential between them can see a
// wrong pick. The fixture must hold fetches with two covering Ptiles where
// the first covering one is not the smallest, so a choice that keeps the
// first covering Ptile fails.
func TestPtileSegmentsServedBySmallestCoveringPtile(t *testing.T) {
	fx := ptileFixture(t)
	for _, scheme := range []Scheme{SchemePtile, SchemeOurs} {
		cfg, err := DefaultConfig(scheme, power.Pixel3)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStepper(fx.cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var steps, multi, firstLarger int
		for u, user := range fx.eval {
			link := &fetchRecorder{scriptedLink: scriptedLink{tr: fx.trace, degrade: -1, abandon: -1}}
			state, err := st.NewStateLink(user, link)
			if err != nil {
				t.Fatal(err)
			}
			for done := false; !done; {
				info, err := st.Step(state)
				if err != nil {
					t.Fatal(err)
				}
				done = info.Done
			}
			for _, f := range link.fetches {
				want, covering, first := expectedPtile(cfg, fx.cat, f.Segment, f.Center)
				if f.Ptile != want {
					t.Fatalf("%v viewer %d segment %d at %+v: served by Ptile %d, want %d (%d covering)",
						scheme, u, f.Segment, f.Center, f.Ptile, want, covering)
				}
				steps++
				if covering > 1 {
					multi++
					if first != want {
						firstLarger++
					}
				}
			}
		}
		t.Logf("%v: %d fetches, %d with two or more covering Ptiles, %d of them with the first covering one not the smallest",
			scheme, steps, multi, firstLarger)
		if firstLarger == 0 {
			t.Fatalf("%v: no fetch had a smaller Ptile behind the first covering one", scheme)
		}
	}
}
