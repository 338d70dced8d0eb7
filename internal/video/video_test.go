package video

import (
	"math"
	"testing"
	"testing/quick"

	"ptile360/internal/geom"
)

func refContent() SegmentContent { return SegmentContent{SI: 50, TI: 25, Jitter: 1} }

func fovRect() geom.Rect {
	// The nine-tile FoV block on a 4×8 grid: 135°×135°.
	return geom.Rect{X0: 90, Y0: 22.5, W: 135, H: 135}
}

func TestQualityCRF(t *testing.T) {
	for _, tc := range []struct {
		q    Quality
		want int
	}{
		{1, 38}, {2, 33}, {3, 28}, {4, 23}, {5, 18},
	} {
		crf, err := tc.q.CRF()
		if err != nil {
			t.Fatalf("CRF(%d): %v", tc.q, err)
		}
		if crf != tc.want {
			t.Fatalf("CRF(%d) = %d, want %d", tc.q, crf, tc.want)
		}
	}
	if _, err := Quality(0).CRF(); err == nil {
		t.Fatal("want error for quality 0")
	}
	if _, err := Quality(6).CRF(); err == nil {
		t.Fatal("want error for quality 6")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultEncoderConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []func(*EncoderConfig){
		func(c *EncoderConfig) { c.BaseDensity = 0 },
		func(c *EncoderConfig) { c.Ladder[2] = c.Ladder[1] },
		func(c *EncoderConfig) { c.TileOverheadBits = -1 },
		func(c *EncoderConfig) { c.MergeEff[0] = 0 },
		func(c *EncoderConfig) { c.MergeEff[4] = 1.2 },
		func(c *EncoderConfig) { c.PanoramaEff = 0 },
		func(c *EncoderConfig) { c.PanoramaEff = 1.5 },
		func(c *EncoderConfig) { c.FrameRateExponent = 0 },
		func(c *EncoderConfig) { c.FrameRate = 0 },
	}
	for i, mutate := range bad {
		c := DefaultEncoderConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestTileBitsMonotoneInQuality(t *testing.T) {
	cfg := DefaultEncoderConfig()
	prev := 0.0
	for q := MinQuality; q <= MaxQuality; q++ {
		bits, err := cfg.TileBits(TileSpec{Rect: fovRect(), Quality: q}, 1, refContent())
		if err != nil {
			t.Fatalf("TileBits(q=%d): %v", q, err)
		}
		if bits <= prev {
			t.Fatalf("size at q=%d (%g) not larger than q=%d (%g)", q, bits, q-1, prev)
		}
		prev = bits
	}
}

func TestTileBitsScalesWithArea(t *testing.T) {
	cfg := DefaultEncoderConfig()
	small := geom.Rect{X0: 0, Y0: 45, W: 45, H: 45}
	big := geom.Rect{X0: 0, Y0: 45, W: 90, H: 90}
	sb, err := cfg.TileBits(TileSpec{Rect: small, Quality: 3}, 1, refContent())
	if err != nil {
		t.Fatal(err)
	}
	bb, err := cfg.TileBits(TileSpec{Rect: big, Quality: 3}, 1, refContent())
	if err != nil {
		t.Fatal(err)
	}
	// 4x the area must cost less than 4x the bits (shared overhead), but more
	// than the small tile.
	if bb <= sb || bb >= 4*sb {
		t.Fatalf("big %g vs small %g: want sb < bb < 4·sb", bb, sb)
	}
	contentSmall := sb - cfg.TileOverheadBits
	contentBig := bb - cfg.TileOverheadBits
	if math.Abs(contentBig-4*contentSmall) > 1e-6 {
		t.Fatalf("content bits should scale linearly with area: %g vs 4×%g", contentBig, contentSmall)
	}
}

func TestTileBitsFrameRateReduction(t *testing.T) {
	cfg := DefaultEncoderConfig()
	full, err := cfg.TileBits(TileSpec{Rect: fovRect(), Quality: 4, Kind: KindPtile}, 1, refContent())
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := cfg.TileBits(TileSpec{Rect: fovRect(), Quality: 4, FrameRate: 21, Kind: KindPtile}, 1, refContent())
	if err != nil {
		t.Fatal(err)
	}
	if reduced >= full {
		t.Fatalf("reduced frame rate must shrink size: %g vs %g", reduced, full)
	}
	// Content scales as (21/30)^0.8 ≈ 0.752.
	wantContent := (full - cfg.TileOverheadBits) * math.Pow(0.7, cfg.FrameRateExponent)
	if math.Abs((reduced-cfg.TileOverheadBits)-wantContent) > 1e-6 {
		t.Fatalf("frame-rate scaling off: got %g, want %g", reduced-cfg.TileOverheadBits, wantContent)
	}
}

func TestTileBitsValidation(t *testing.T) {
	cfg := DefaultEncoderConfig()
	if _, err := cfg.TileBits(TileSpec{Rect: geom.Rect{W: 0, H: 10}, Quality: 3}, 1, refContent()); err == nil {
		t.Fatal("want error for invalid rect")
	}
	if _, err := cfg.TileBits(TileSpec{Rect: fovRect(), Quality: 9}, 1, refContent()); err == nil {
		t.Fatal("want error for invalid quality")
	}
	if _, err := cfg.TileBits(TileSpec{Rect: fovRect(), Quality: 3}, 0, refContent()); err == nil {
		t.Fatal("want error for zero duration")
	}
	if _, err := cfg.TileBits(TileSpec{Rect: fovRect(), Quality: 3, FrameRate: 60}, 1, refContent()); err == nil {
		t.Fatal("want error for frame rate above source")
	}
}

// TestFig8Calibration verifies the headline property of the encoder model:
// the Ptile/Ctile size ratio for the nine-tile FoV area reproduces the
// Fig. 8 medians (62/57/47/35/27 % at q=5..1) at reference complexity.
func TestFig8Calibration(t *testing.T) {
	cfg := DefaultEncoderConfig()
	grid, err := geom.NewGrid(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	fov := grid.FoVTiles(geom.Point{X: 180, Y: 90}, 100, 100)
	want := map[Quality]float64{1: 0.27, 2: 0.35, 3: 0.47, 4: 0.57, 5: 0.62}
	for q := MinQuality; q <= MaxQuality; q++ {
		var ctileBits float64
		for _, id := range fov {
			b, err := cfg.TileBits(TileSpec{Rect: grid.TileRect(id), Quality: q}, 1, refContent())
			if err != nil {
				t.Fatal(err)
			}
			ctileBits += b
		}
		bound, err := grid.BoundingRect(fov)
		if err != nil {
			t.Fatal(err)
		}
		ptileBits, err := cfg.TileBits(TileSpec{Rect: bound, Quality: q, Kind: KindPtile}, 1, refContent())
		if err != nil {
			t.Fatal(err)
		}
		ratio := ptileBits / ctileBits
		if math.Abs(ratio-want[q]) > 0.015 {
			t.Fatalf("q=%d: Ptile/Ctile ratio = %.3f, want %.2f ± 0.015", q, ratio, want[q])
		}
	}
}

// Property: higher SI or TI content never shrinks tile size.
func TestContentScaleMonotone(t *testing.T) {
	cfg := DefaultEncoderConfig()
	check := func(si1, ti1, dsi, dti float64) bool {
		si := 10 + math.Mod(math.Abs(si1), 60)
		ti := 5 + math.Mod(math.Abs(ti1), 40)
		a := SegmentContent{SI: si, TI: ti, Jitter: 1}
		b := SegmentContent{SI: si + math.Mod(math.Abs(dsi), 20), TI: ti + math.Mod(math.Abs(dti), 15), Jitter: 1}
		spec := TileSpec{Rect: fovRect(), Quality: 3}
		ba, err1 := cfg.TileBits(spec, 1, a)
		bb, err2 := cfg.TileBits(spec, 1, b)
		return err1 == nil && err2 == nil && bb >= ba
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogMatchesTableIII(t *testing.T) {
	cat := Catalog()
	if len(cat) != 8 {
		t.Fatalf("catalog has %d videos, want 8", len(cat))
	}
	wantDur := map[int]int{1: 361, 2: 172, 3: 373, 4: 278, 5: 292, 6: 164, 7: 205, 8: 201}
	for _, p := range cat {
		if p.DurationSec != wantDur[p.ID] {
			t.Fatalf("video %d duration %d, want %d", p.ID, p.DurationSec, wantDur[p.ID])
		}
		wantClass := Focused
		if p.ID >= 5 {
			wantClass = Exploring
		}
		if p.Class != wantClass {
			t.Fatalf("video %d class %v, want %v", p.ID, p.Class, wantClass)
		}
	}
}

func TestProfileByID(t *testing.T) {
	p, err := ProfileByID(8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Freestyle Skiing" {
		t.Fatalf("video 8 = %q", p.Name)
	}
	if _, err := ProfileByID(99); err == nil {
		t.Fatal("want error for unknown ID")
	}
}

func TestSegments(t *testing.T) {
	p, _ := ProfileByID(2)
	if got := p.Segments(1); got != 172 {
		t.Fatalf("Segments(1) = %d, want 172", got)
	}
	if got := p.Segments(0); got != 0 {
		t.Fatalf("Segments(0) = %d, want 0", got)
	}
}

func TestContentSeriesDeterministic(t *testing.T) {
	cfg := DefaultEncoderConfig()
	p, _ := ProfileByID(3)
	a, err := p.ContentSeries(100, 42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.ContentSeries(100, 42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("series diverge at %d", i)
		}
	}
	c, err := p.ContentSeries(100, 43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical series")
	}
}

func TestContentSeriesStatistics(t *testing.T) {
	cfg := DefaultEncoderConfig()
	p, _ := ProfileByID(1)
	series, err := p.ContentSeries(2000, 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var siSum, tiSum, jSum float64
	for _, s := range series {
		siSum += s.SI
		tiSum += s.TI
		jSum += s.Jitter
		if s.Jitter <= 0 {
			t.Fatalf("non-positive jitter %g", s.Jitter)
		}
	}
	n := float64(len(series))
	if m := siSum / n; math.Abs(m-p.SIMean) > 3 {
		t.Fatalf("SI mean = %g, want ≈%g", m, p.SIMean)
	}
	if m := tiSum / n; math.Abs(m-p.TIMean) > 3 {
		t.Fatalf("TI mean = %g, want ≈%g", m, p.TIMean)
	}
	if m := jSum / n; math.Abs(m-1) > 0.05 {
		t.Fatalf("jitter mean = %g, want ≈1", m)
	}
	if _, err := p.ContentSeries(0, 7, cfg); err == nil {
		t.Fatal("want error for zero segments")
	}
}

func TestQoEBitrateMbps(t *testing.T) {
	cfg := DefaultEncoderConfig()
	b1, err := cfg.QoEBitrateMbps(1)
	if err != nil {
		t.Fatal(err)
	}
	b5, err := cfg.QoEBitrateMbps(5)
	if err != nil {
		t.Fatal(err)
	}
	if b5 <= b1 {
		t.Fatalf("bitrate not increasing: %g vs %g", b1, b5)
	}
	// 0.35 of 6 Mbps at m=0.25 → 0.525 Mbps.
	if math.Abs(b1-0.525) > 1e-9 {
		t.Fatalf("QoE bitrate at q1 = %g, want 0.525", b1)
	}
	if _, err := cfg.QoEBitrateMbps(0); err == nil {
		t.Fatal("want error for invalid quality")
	}
}

func TestTileKindEfficiencyOrdering(t *testing.T) {
	cfg := DefaultEncoderConfig()
	grid, err := cfg.TileBits(TileSpec{Rect: fovRect(), Quality: 3, Kind: KindGrid}, 1, refContent())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := cfg.TileBits(TileSpec{Rect: fovRect(), Quality: 3, Kind: KindPtile}, 1, refContent())
	if err != nil {
		t.Fatal(err)
	}
	pano, err := cfg.TileBits(TileSpec{Rect: fovRect(), Quality: 3, Kind: KindPanorama}, 1, refContent())
	if err != nil {
		t.Fatal(err)
	}
	block, err := cfg.TileBits(TileSpec{Rect: fovRect(), Quality: 3, Kind: KindBlock}, 1, refContent())
	if err != nil {
		t.Fatal(err)
	}
	if !(pt < pano && pano < grid) {
		t.Fatalf("efficiency ordering broken: ptile %g, pano %g, grid %g", pt, pano, grid)
	}
	if block != pt {
		t.Fatalf("block %g should merge like a Ptile %g", block, pt)
	}
	if _, err := cfg.TileBits(TileSpec{Rect: fovRect(), Quality: 3, Kind: TileKind(99)}, 1, refContent()); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

func TestTileKindString(t *testing.T) {
	for k, want := range map[TileKind]string{
		KindGrid: "grid", KindPtile: "ptile", KindBlock: "block", KindPanorama: "panorama",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if TileKind(42).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}
