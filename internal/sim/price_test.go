package sim

import (
	"math"
	"slices"
	"testing"

	"ptile360/internal/geom"
	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/power"
	"ptile360/internal/ptile"
	"ptile360/internal/video"
)

// pricingLink is a bandwidth trace that, before delivering the chosen
// version, prices every offered option with a Pricer and fails the test
// unless the price is the option's SizeBits on Float64bits.
type pricingLink struct {
	t         *testing.T
	tr        *lte.Trace
	pr        *Pricer
	fetches   int
	fallbacks int
}

func (l *pricingLink) Download(f *Fetch) error {
	l.fetches++
	if f.Ptile < 0 {
		l.fallbacks++
	}
	for _, o := range f.Options {
		bits, err := l.pr.Bits(f.Segment, o.Quality, o.FrameRate, f.Ptile, f.Center)
		if err != nil {
			l.t.Fatalf("seg %d ptile %d option %+v: %v", f.Segment, f.Ptile, o.Option, err)
		}
		if math.Float64bits(bits) != math.Float64bits(o.SizeBits) {
			l.t.Fatalf("seg %d ptile %d center %+v option %+v: priced %v, planned %v",
				f.Segment, f.Ptile, f.Center, o.Option, bits, o.SizeBits)
		}
	}
	dl, err := l.tr.DownloadTime(f.Chosen.SizeBits, f.StartSec)
	f.Used, f.DownloadSec = f.Chosen, dl
	return err
}

func (l *pricingLink) RateAt(t float64) float64 { return l.tr.At(t) }

func (l *pricingLink) Packets() []netem.PacketSample { return nil }

// TestPricerMatchesPlan pins one size model: every option a Ptile or Ours
// session is offered, Ptile and conventional fallback alike, prices at
// exactly its SizeBits through the exported Pricer, on both fixtures, both
// standard LTE traces, every eval viewer, with and without
// StrictViewportQoE, from the plan tables and on the direct reference path.
func TestPricerMatchesPlan(t *testing.T) {
	forEachFixture(t, func(t *testing.T, fx *testFixture) {
		tr1, tr2, err := lte.StandardTraces(300, 99)
		if err != nil {
			t.Fatal(err)
		}
		for _, tables := range []bool{true, false} {
			for _, scheme := range []Scheme{SchemePtile, SchemeOurs} {
				for _, strict := range []bool{false, true} {
					cfg, err := DefaultConfig(scheme, power.Pixel3)
					if err != nil {
						t.Fatal(err)
					}
					cfg.StrictViewportQoE = strict
					disablePlanTables = !tables
					st, err := NewStepper(fx.cat, cfg)
					if err != nil {
						disablePlanTables = false
						t.Fatal(err)
					}
					pr, err := NewPricer(fx.cat, cfg)
					disablePlanTables = false
					if err != nil {
						t.Fatal(err)
					}
					if (pr.tab != nil) != tables {
						t.Fatalf("pricer tables present = %v, want %v", pr.tab != nil, tables)
					}
					var fetches, fallbacks int
					for _, tr := range []*lte.Trace{tr1, tr2} {
						for _, user := range fx.eval {
							link := &pricingLink{t: t, tr: tr, pr: pr}
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
							fetches += link.fetches
							fallbacks += link.fallbacks
						}
					}
					t.Logf("%v tables=%v strict=%v: %d fetches priced, %d conventional fallbacks",
						scheme, tables, strict, fetches, fallbacks)
					if fallbacks == 0 || fallbacks == fetches {
						t.Fatalf("%v: %d fallbacks of %d fetches; the sessions must price both kinds", scheme, fallbacks, fetches)
					}
				}
			}
		}
	})
}

// TestPricerRejectsOffGridCatalogue: a catalogue with an Ftile tile off the
// configured grid is an error when pricing or stepping starts, since that
// tile's mask bit would name another tile or none.
func TestPricerRejectsOffGridCatalogue(t *testing.T) {
	fx := fixture(t)
	ftiles := slices.Clone(fx.cat.Ftiles)
	ftiles[0] = slices.Clone(ftiles[0])
	ftiles[0][0].Tiles = append(slices.Clone(ftiles[0][0].Tiles), geom.TileID{Row: 4, Col: 0})
	cat := &Catalog{
		Video: fx.cat.Video, SegmentSec: fx.cat.SegmentSec, Content: fx.cat.Content,
		Ptiles: fx.cat.Ptiles, Ftiles: ftiles, Coverage: fx.cat.Coverage,
	}
	cfg, err := DefaultConfig(SchemeFtile, power.Pixel3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPricer(cat, cfg); err == nil {
		t.Fatal("NewPricer accepted an Ftile tile in row 4 of a 4x8 grid")
	}
	if _, err := NewStepper(cat, cfg); err == nil {
		t.Fatal("NewStepper accepted an Ftile tile in row 4 of a 4x8 grid")
	}
}

// TestPlanTableMasksMatchDirect pins the tables' coverage masks to the ones
// the direct reference path computes per call, for every Ptile and Ftile
// group of every segment. The fixture holds one Ptile per segment, so two
// more are added to each: a reference path reading another Ptile's mask
// then shows.
func TestPlanTableMasksMatchDirect(t *testing.T) {
	fx := fixture(t)
	ptiles := make([][]ptile.Ptile, len(fx.cat.Ptiles))
	for k, pts := range fx.cat.Ptiles {
		ptiles[k] = append(slices.Clone(pts),
			ptile.Ptile{Rect: geom.Rect{X0: 315, Y0: 45, W: 135, H: 90}},
			ptile.Ptile{Rect: geom.Rect{X0: 90, Y0: 0, W: 180, H: 135}})
	}
	cat := &Catalog{
		Video: fx.cat.Video, SegmentSec: fx.cat.SegmentSec, Content: fx.cat.Content,
		Ptiles: ptiles, Ftiles: fx.cat.Ftiles, Coverage: fx.cat.Coverage,
	}
	cfg, err := DefaultConfig(SchemeOurs, power.Pixel3)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewPricer(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	disablePlanTables = true
	direct, err := NewPricer(cat, cfg)
	disablePlanTables = false
	if err != nil {
		t.Fatal(err)
	}
	for k := range cat.Content {
		for i := range cat.Ptiles[k] {
			if got, want := direct.ptileSet(k, i), tab.ptileSet(k, i); got != want {
				t.Fatalf("segment %d Ptile %d: direct mask %v, table %v", k, i, got, want)
			}
		}
		for gi := range cat.Ftiles[k] {
			if got, want := direct.ftileSet(k, gi), tab.ftileSet(k, gi); got != want {
				t.Fatalf("segment %d Ftile group %d: direct mask %v, table %v", k, gi, got, want)
			}
		}
	}
}

// TestPricerRejectsBadRequests: every request outside the catalogue or the
// configured ladder is an error, never a price or a panic.
func TestPricerRejectsBadRequests(t *testing.T) {
	fx := fixture(t)
	cfg, err := DefaultConfig(SchemeOurs, power.Pixel3)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewPricer(fx.cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := -1
	for i, pts := range fx.cat.Ptiles {
		if len(pts) > 0 {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("fixture has no segment with a Ptile")
	}
	center := geom.Point{X: 180, Y: 90}
	nSeg := len(fx.cat.Content)
	nPt := len(fx.cat.Ptiles[k])
	cases := []struct {
		name   string
		k      int
		v      video.Quality
		f      float64
		pi     int
		center geom.Point
	}{
		{"segment negative", -1, 3, 30, 0, center},
		{"segment past end", nSeg, 3, 30, 0, center},
		{"conventional segment past end", nSeg, 3, 0, -1, center},
		{"quality zero", k, 0, 30, 0, center},
		{"quality above max", k, video.MaxQuality + 1, 30, 0, center},
		{"conventional quality zero", k, 0, 0, -1, center},
		{"ptile past end", k, 3, 30, nPt, center},
		{"ptile negative", k, 3, 30, -2, center},
		{"ptile rate off ladder", k, 3, 25, 0, center},
		{"ptile rate between rungs", k, 3, 30.5, 0, center},
		{"ptile rate NaN", k, 3, math.NaN(), 0, center},
		{"ptile rate negative", k, 3, -30, 0, center},
		{"conventional rate off ladder", k, 3, 25, -1, center},
		{"conventional reduced rate", k, 3, 27, -1, center},
		{"conventional center NaN", k, 3, 0, -1, geom.Point{X: math.NaN(), Y: 90}},
		{"conventional center Inf", k, 3, 0, -1, geom.Point{X: 180, Y: math.Inf(-1)}},
		{"conventional center far", k, 3, 0, -1, geom.Point{X: 1e300, Y: 90}},
	}
	for _, tc := range cases {
		if bits, err := pr.Bits(tc.k, tc.v, tc.f, tc.pi, tc.center); err == nil {
			t.Errorf("%s: priced at %v, want an error", tc.name, bits)
		}
	}
	// f = 0 is the source rate on both kinds.
	for _, pi := range []int{0, -1} {
		src, err := pr.Bits(k, 3, 0, pi, center)
		if err != nil {
			t.Fatal(err)
		}
		at30, err := pr.Bits(k, 3, 30, pi, center)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(src) != math.Float64bits(at30) || src <= 0 {
			t.Fatalf("ptile %d: f=0 priced %v, f=30 %v", pi, src, at30)
		}
	}
	if _, err := NewPricer(nil, cfg); err == nil {
		t.Fatal("nil catalogue accepted")
	}
	bad := cfg
	bad.FrameRates = []float64{30, 60}
	if _, err := NewPricer(fx.cat, bad); err == nil {
		t.Fatal("ladder rate above the source rate accepted")
	}
	// The catalogue's segment duration prices, whatever the config says.
	bad.SegmentSec, bad.FrameRates = 2, cfg.FrameRates
	alt, err := NewPricer(fx.cat, bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range []int{0, -1} {
		a, errA := alt.Bits(k, 3, 0, pi, center)
		b, errB := pr.Bits(k, 3, 0, pi, center)
		if errA != nil || errB != nil || math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("ptile %d: priced %v (%v) with L = 2 in the config, %v (%v) with the catalogue's", pi, a, errA, b, errB)
		}
	}
}
