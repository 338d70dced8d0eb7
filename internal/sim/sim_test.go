package sim

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ptile360/internal/geom"
	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/power"
	"ptile360/internal/video"
)

// testFixture is a small deterministic evaluation setup shared by the
// session tests: a catalogue, its evaluation viewers and a 300 s LTE trace.
type testFixture struct {
	cat  *Catalog
	eval []*headtrace.Trace
	// trace is trace 2 of lte.StandardTraces(300, 99).
	trace *lte.Trace
}

// fixtureMemo builds one fixture once per test binary. The fixtures are
// shared package-wide (notably by the stress tests), so the build sits
// behind a sync.Once to stay race-clean under -race and t.Parallel.
type fixtureMemo struct {
	once sync.Once
	fx   *testFixture
	err  error
}

func (m *fixtureMemo) get(t testing.TB, build func() (*testFixture, error)) *testFixture {
	t.Helper()
	m.once.Do(func() { m.fx, m.err = build() })
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.fx
}

var videoTwo, videoEight fixtureMemo

// fixture is video 2 (shortest focused video) with 16 users, 12 of them
// training: one Ptile in each of its 172 segments.
func fixture(t testing.TB) *testFixture { return videoTwo.get(t, buildFixture) }

// ptileFixture is video 8 prepared by PrepareVideo from 16 users, 12 of
// them training, at seed 42: its segments offer no Ptile, one or two, so
// sessions choose among Ptiles and fall back where none is offered.
func ptileFixture(t testing.TB) *testFixture { return videoEight.get(t, buildPtileFixture) }

// forEachFixture runs fn as a subtest on each fixture.
func forEachFixture(t *testing.T, fn func(t *testing.T, fx *testFixture)) {
	t.Run("video2", func(t *testing.T) { fn(t, fixture(t)) })
	t.Run("video8", func(t *testing.T) { fn(t, ptileFixture(t)) })
}

// buildFixture generates the traces at seed 42 and splits them at seed 7;
// the catalogue takes DefaultCatalogConfig's seed. Golden values pin these
// seeds.
func buildFixture() (*testFixture, error) {
	p, err := video.ProfileByID(2)
	if err != nil {
		return nil, err
	}
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = 16
	ds, err := headtrace.Generate(p, gcfg, 42)
	if err != nil {
		return nil, err
	}
	train, eval, err := ds.SplitTrainEval(12, 7)
	if err != nil {
		return nil, err
	}
	ccfg, err := DefaultCatalogConfig()
	if err != nil {
		return nil, err
	}
	cat, err := BuildCatalog(p, train, ccfg)
	if err != nil {
		return nil, err
	}
	_, tr2, err := lte.StandardTraces(300, 99)
	if err != nil {
		return nil, err
	}
	return &testFixture{cat: cat, eval: eval, trace: tr2}, nil
}

func buildPtileFixture() (*testFixture, error) {
	p, err := video.ProfileByID(8)
	if err != nil {
		return nil, err
	}
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = 16
	ds, err := headtrace.Generate(p, gcfg, 42)
	if err != nil {
		return nil, err
	}
	v, err := PrepareVideo(ds, 12, 42, 0)
	if err != nil {
		return nil, err
	}
	_, tr2, err := lte.StandardTraces(300, 99)
	if err != nil {
		return nil, err
	}
	return &testFixture{cat: v.Catalog, eval: v.Eval, trace: tr2}, nil
}

// TestPtileFixtureChoosesAmongPtiles: the second fixture holds segments
// with no Ptile, with one and with more, so the differentials that run on
// it see every kind.
func TestPtileFixtureChoosesAmongPtiles(t *testing.T) {
	fx := ptileFixture(t)
	kinds := map[int]int{}
	for _, pts := range fx.cat.Ptiles {
		kinds[min(len(pts), 2)]++
	}
	t.Logf("segments with no Ptile %d, one %d, two or more %d", kinds[0], kinds[1], kinds[2])
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
		t.Fatalf("segments by Ptile count (0, 1, 2+): %v; want every kind", kinds)
	}
}

func TestBuildCatalogShape(t *testing.T) {
	fx := fixture(t)
	nSeg := fx.cat.Video.Segments(1)
	if len(fx.cat.Content) != nSeg || len(fx.cat.Ptiles) != nSeg || len(fx.cat.Ftiles) != nSeg {
		t.Fatalf("catalogue arrays not per-segment: %d/%d/%d vs %d",
			len(fx.cat.Content), len(fx.cat.Ptiles), len(fx.cat.Ftiles), nSeg)
	}
	for seg, groups := range fx.cat.Ftiles {
		var area float64
		tileCount := 0
		for _, g := range groups {
			area += g.AreaFrac
			tileCount += len(g.Tiles)
		}
		if math.Abs(area-1) > 1e-9 {
			t.Fatalf("segment %d: Ftile groups cover %.4f of panorama, want 1", seg, area)
		}
		if tileCount != 32 {
			t.Fatalf("segment %d: Ftile groups hold %d tiles, want 32", seg, tileCount)
		}
		if len(groups) > 10 {
			t.Fatalf("segment %d: %d Ftile groups, want ≤ 10", seg, len(groups))
		}
	}
	for seg, cov := range fx.cat.Coverage {
		if cov < 0 || cov > 1 {
			t.Fatalf("segment %d coverage %g outside [0,1]", seg, cov)
		}
	}
}

func TestBuildCatalogValidation(t *testing.T) {
	p, _ := video.ProfileByID(2)
	ccfg, _ := DefaultCatalogConfig()
	if _, err := BuildCatalog(p, nil, ccfg); err == nil {
		t.Fatal("want error for no training traces")
	}
	fx := fixture(t)
	bad := ccfg
	bad.SegmentSec = 0
	if _, err := BuildCatalog(p, fx.eval, bad); err == nil {
		t.Fatal("want error for zero segment duration")
	}
	bad = ccfg
	bad.FtileCount = 0
	if _, err := BuildCatalog(p, fx.eval, bad); err == nil {
		t.Fatal("want error for zero Ftile count")
	}
	short := p
	short.DurationSec = 0
	if _, err := BuildCatalog(short, fx.eval, ccfg); err == nil {
		t.Fatal("want error for zero-length video")
	}
}

// shortDataset generates users viewers of the first 40 s of video 8 at
// seed.
func shortDataset(t *testing.T, users int, seed int64) *headtrace.Dataset {
	t.Helper()
	p, err := video.ProfileByID(8)
	if err != nil {
		t.Fatal(err)
	}
	p.DurationSec = 40
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = users
	ds, err := headtrace.Generate(p, gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestPrepareVideoMatchesInlineSteps: PrepareVideo is the split at seed+1
// and the catalogue built from its training users at seed, the same on one
// worker and on four.
func TestPrepareVideoMatchesInlineSteps(t *testing.T) {
	const seed = 5
	ds := shortDataset(t, 12, seed)
	train, eval, err := ds.SplitTrainEval(9, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	ccfg, err := DefaultCatalogConfig()
	if err != nil {
		t.Fatal(err)
	}
	ccfg.Seed = seed
	want, err := BuildCatalog(ds.Video, train, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		v, err := PrepareVideo(ds, 9, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		if v.Profile != ds.Video || !slices.Equal(v.Train, train) || !slices.Equal(v.Eval, eval) {
			t.Fatalf("workers=%d: profile %v, %d train and %d eval users; want %v, the split's %d and %d",
				workers, v.Profile, len(v.Train), len(v.Eval), ds.Video, len(train), len(eval))
		}
		if !reflect.DeepEqual(v.Catalog, want) {
			t.Fatalf("workers=%d: catalogue differs from BuildCatalog at seed %d", workers, seed)
		}
	}
}

// TestPrepareVideoRejects: a training count outside (0, viewers) and a nil
// or empty dataset are errors.
func TestPrepareVideoRejects(t *testing.T) {
	ds := shortDataset(t, 4, 1)
	for _, nTrain := range []int{-1, 0, 4, 5} {
		if _, err := PrepareVideo(ds, nTrain, 1, 0); err == nil {
			t.Fatalf("%d of 4 viewers training accepted", nTrain)
		}
	}
	if _, err := PrepareVideo(nil, 1, 1, 0); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := PrepareVideo(&headtrace.Dataset{Video: ds.Video}, 1, 1, 0); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestDefaultConfigPerScheme(t *testing.T) {
	for _, scheme := range Schemes() {
		cfg, err := DefaultConfig(scheme, power.Pixel3)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v: invalid default config: %v", scheme, err)
		}
		if scheme == SchemeOurs {
			if len(cfg.FrameRates) != 4 {
				t.Fatalf("Ours should have 4 frame rates, got %d", len(cfg.FrameRates))
			}
		} else if len(cfg.FrameRates) != 1 {
			t.Fatalf("%v should have 1 frame rate, got %d", scheme, len(cfg.FrameRates))
		}
	}
}

func TestConfigValidateRejects(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Scheme = Scheme(99) },
		func(c *Config) { c.Encoder.BaseDensity = 0 },
		func(c *Config) { c.Grid.Rows = 0 },
		func(c *Config) { c.Grid = geom.Grid{Rows: 12, Cols: 24} }, // 288 tiles
		func(c *Config) { c.FoVDeg = 0 },
		func(c *Config) { c.SegmentSec = 0 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Epsilon = 1 },
		func(c *Config) { c.FrameRates = nil },
		func(c *Config) { c.FrameRates = []float64{99} },
		func(c *Config) { c.BandwidthWindow = 0 },
		func(c *Config) { c.RateSafety = 0 },
		func(c *Config) { c.AlphaScale = 0 },
		func(c *Config) { c.Viewport.SampleRate = 0 },
		func(c *Config) { c.Weights.Variation = -1 },
	}
	for i, mutate := range muts {
		cfg, err := DefaultConfig(SchemeOurs, power.Pixel3)
		if err != nil {
			t.Fatal(err)
		}
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestRunAllSchemes(t *testing.T) {
	fx := fixture(t)
	for _, scheme := range Schemes() {
		cfg, err := DefaultConfig(scheme, power.Pixel3)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(fx.cat, fx.eval[0], fx.trace, cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if r.Segments != len(fx.cat.Content) {
			t.Fatalf("%v: streamed %d segments, want %d", scheme, r.Segments, len(fx.cat.Content))
		}
		if r.Energy.Total() <= 0 || r.Energy.Tx <= 0 || r.Energy.Decode <= 0 || r.Energy.Render <= 0 {
			t.Fatalf("%v: non-positive energy %+v", scheme, r.Energy)
		}
		if r.BitsDownloaded <= 0 {
			t.Fatalf("%v: no bits downloaded", scheme)
		}
		if r.MeanQuality < 1 || r.MeanQuality > 5 {
			t.Fatalf("%v: mean quality %g outside [1, 5]", scheme, r.MeanQuality)
		}
		if r.MeanFrameRate <= 0 || r.MeanFrameRate > 30 {
			t.Fatalf("%v: mean frame rate %g outside (0, 30]", scheme, r.MeanFrameRate)
		}
		if r.QoE.MeanQ0 <= 0 || r.QoE.MeanQ0 > 100 {
			t.Fatalf("%v: Q0 %g outside (0, 100]", scheme, r.QoE.MeanQ0)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	fx := fixture(t)
	cfg, _ := DefaultConfig(SchemeOurs, power.Pixel3)
	a, err := Run(fx.cat, fx.eval[0], fx.trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fx.cat, fx.eval[0], fx.trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy != b.Energy || a.QoE != b.QoE || a.BitsDownloaded != b.BitsDownloaded {
		t.Fatal("session not deterministic")
	}
}

// TestPaperShapeOrdering is the headline reproduction check on a small
// setup: the paper's qualitative orderings must hold.
func TestPaperShapeOrdering(t *testing.T) {
	fx := fixture(t)
	energy := map[Scheme]float64{}
	qoe := map[Scheme]float64{}
	frameRate := map[Scheme]float64{}
	for _, scheme := range Schemes() {
		cfg, _ := DefaultConfig(scheme, power.Pixel3)
		var e, q, f float64
		n := 0
		for _, u := range fx.eval[:3] {
			r, err := Run(fx.cat, u, fx.trace, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e += r.Energy.Total() / float64(r.Segments)
			q += r.QoE.MeanQ
			f += r.MeanFrameRate
			n++
		}
		energy[scheme] = e / float64(n)
		qoe[scheme] = q / float64(n)
		frameRate[scheme] = f / float64(n)
	}

	// Fig. 9/10 orderings that survive this deliberately small fixture
	// (12 training users → sparser Ptile coverage than the paper's 40, so
	// Ptile-vs-Nontile is checked at full scale in the experiments
	// package): Ours < Ptile < Ftile < Ctile, Nontile < Ctile.
	if !(energy[SchemeOurs] < energy[SchemePtile] &&
		energy[SchemePtile] < energy[SchemeFtile] &&
		energy[SchemeFtile] < energy[SchemeCtile] &&
		energy[SchemeNontile] < energy[SchemeCtile]) {
		t.Fatalf("energy ordering broken: %v", energy)
	}
	// Headline claim: Ours saves a meaningful fraction of Ctile's energy
	// even on the small fixture.
	saving := 1 - energy[SchemeOurs]/energy[SchemeCtile]
	if saving < 0.12 {
		t.Fatalf("Ours energy saving vs Ctile = %.1f%%, want ≥ 12%%", 100*saving)
	}
	// Fig. 11: Ptile and Ours beat Ctile; Nontile is the worst.
	if qoe[SchemePtile] <= qoe[SchemeCtile] {
		t.Fatalf("Ptile QoE %.1f not above Ctile %.1f", qoe[SchemePtile], qoe[SchemeCtile])
	}
	if qoe[SchemeOurs] <= qoe[SchemeCtile] {
		t.Fatalf("Ours QoE %.1f not above Ctile %.1f", qoe[SchemeOurs], qoe[SchemeCtile])
	}
	if qoe[SchemeNontile] >= qoe[SchemeCtile] {
		t.Fatalf("Nontile QoE %.1f should be the worst (Ctile %.1f)", qoe[SchemeNontile], qoe[SchemeCtile])
	}
	// Ours actually reduces the frame rate; everyone else plays at 30 fps.
	if frameRate[SchemeOurs] >= 29 {
		t.Fatalf("Ours mean frame rate %.1f: frame-rate adaptation not engaging", frameRate[SchemeOurs])
	}
	for _, s := range []Scheme{SchemeCtile, SchemeFtile, SchemeNontile, SchemePtile} {
		if frameRate[s] != 30 {
			t.Fatalf("%v mean frame rate %.1f, want 30", s, frameRate[s])
		}
	}
}

func TestRunValidation(t *testing.T) {
	fx := fixture(t)
	cfg, _ := DefaultConfig(SchemeOurs, power.Pixel3)
	if _, err := Run(nil, fx.eval[0], fx.trace, cfg); err == nil {
		t.Fatal("want error for nil catalogue")
	}
	if _, err := Run(fx.cat, nil, fx.trace, cfg); err == nil {
		t.Fatal("want error for nil user")
	}
	if _, err := Run(fx.cat, fx.eval[0], &lte.Trace{IntervalSec: 1}, cfg); err == nil {
		t.Fatal("want error for empty network trace")
	}
	bad := cfg
	bad.SegmentSec = 2
	if _, err := Run(fx.cat, fx.eval[0], fx.trace, bad); err == nil {
		t.Fatal("want error for segment-duration mismatch")
	}
	bad = cfg
	bad.Horizon = 0
	if _, err := Run(fx.cat, fx.eval[0], fx.trace, bad); err == nil {
		t.Fatal("want config validation error")
	}
}

func TestStrictViewportQoELowersQuality(t *testing.T) {
	fx := fixture(t)
	cfg, _ := DefaultConfig(SchemeCtile, power.Pixel3)
	plain, err := Run(fx.cat, fx.eval[0], fx.trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StrictViewportQoE = true
	strict, err := Run(fx.cat, fx.eval[0], fx.trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strict.QoE.MeanQ0 >= plain.QoE.MeanQ0 {
		t.Fatalf("strict viewport QoE (%.1f) should be below delivered QoE (%.1f)",
			strict.QoE.MeanQ0, plain.QoE.MeanQ0)
	}
}

func TestOursNoRebuffering(t *testing.T) {
	// Paper Section V-C2: "Ours does not generate any rebuffering events".
	// With the planning safety margin, stalls should be rare (allow a small
	// tail for bandwidth-drop surprises).
	fx := fixture(t)
	cfg, _ := DefaultConfig(SchemeOurs, power.Pixel3)
	var stalls, segs int
	for _, u := range fx.eval[:3] {
		r, err := Run(fx.cat, u, fx.trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stalls += r.QoE.Stalls
		segs += r.Segments
	}
	if frac := float64(stalls) / float64(segs); frac > 0.08 {
		t.Fatalf("Ours stalls on %.1f%% of segments, want ≤ 8%%", 100*frac)
	}
}

func TestSchemeString(t *testing.T) {
	want := map[Scheme]string{
		SchemeCtile: "Ctile", SchemeFtile: "Ftile", SchemeNontile: "Nontile",
		SchemePtile: "Ptile", SchemeOurs: "Ours",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
	if Scheme(42).String() == "" {
		t.Fatal("unknown scheme should still print")
	}
}

func TestDecodeSchemeMapping(t *testing.T) {
	want := map[Scheme]power.Scheme{
		SchemeCtile:   power.Ctile,
		SchemeFtile:   power.Ftile,
		SchemeNontile: power.Nontile,
		SchemePtile:   power.PtileScheme,
		SchemeOurs:    power.PtileScheme,
	}
	for s, w := range want {
		if got := s.decodeScheme(); got != w {
			t.Fatalf("%v decode scheme = %v, want %v", s, got, w)
		}
	}
}
