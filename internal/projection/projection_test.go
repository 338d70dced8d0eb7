package projection

import (
	"math"
	"testing"
	"testing/quick"

	"ptile360/internal/geom"
)

func testView(yaw, pitch float64) View {
	return View{
		Center: geom.Orientation{Yaw: yaw, Pitch: pitch},
		FoVDeg: 100,
		Width:  64,
		Height: 64,
	}
}

func TestValidate(t *testing.T) {
	if err := testView(0, 0).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []View{
		{FoVDeg: 0, Width: 10, Height: 10},
		{FoVDeg: 180, Width: 10, Height: 10},
		{FoVDeg: 100, Width: 0, Height: 10},
		{FoVDeg: 100, Width: 10, Height: -1},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Fatalf("view %d accepted", i)
		}
	}
}

func TestCenterPixelMapsToViewCenter(t *testing.T) {
	for _, tc := range []struct{ yaw, pitch float64 }{
		{0, 0}, {90, 0}, {180, 30}, {270, -45}, {359, 10},
	} {
		v := testView(tc.yaw, tc.pitch)
		// The display center falls between pixels; check the 4 center pixels
		// average to the view center.
		p, err := v.PanoramaCoord(v.Width/2, v.Height/2)
		if err != nil {
			t.Fatal(err)
		}
		want := geom.PointOf(geom.Orientation{Yaw: tc.yaw, Pitch: tc.pitch})
		if math.Abs(geom.WrapDeltaX(p.X, want.X)) > 3 || math.Abs(p.Y-want.Y) > 3 {
			t.Fatalf("view (%g, %g): center pixel maps to %+v, want ≈%+v", tc.yaw, tc.pitch, p, want)
		}
	}
}

func TestPixelsStayWithinFoVCone(t *testing.T) {
	// Every pixel's panorama point must lie within the diagonal FoV of the
	// view center.
	v := testView(123, 20)
	center := geom.Orientation{Yaw: 123, Pitch: 20}
	// Diagonal half-FoV: atan(√2·tan(FoV/2)).
	half := math.Atan(math.Sqrt2*math.Tan(v.FoVDeg/2/geom.DegPerRad)) * geom.DegPerRad
	for py := 0; py < v.Height; py += 7 {
		for px := 0; px < v.Width; px += 7 {
			p, err := v.PanoramaCoord(px, py)
			if err != nil {
				t.Fatal(err)
			}
			if ang := geom.AngleBetween(center, geom.OrientationOf(p)); ang > half+1 {
				t.Fatalf("pixel (%d, %d) at %.1f° from center, beyond %.1f°", px, py, ang, half)
			}
		}
	}
}

func TestPanoramaCoordValidation(t *testing.T) {
	v := testView(0, 0)
	if _, err := v.PanoramaCoord(-1, 0); err == nil {
		t.Fatal("want error for negative pixel")
	}
	if _, err := v.PanoramaCoord(0, v.Height); err == nil {
		t.Fatal("want error for out-of-range pixel")
	}
	bad := v
	bad.FoVDeg = 0
	if _, err := bad.PanoramaCoord(0, 0); err == nil {
		t.Fatal("want view validation error")
	}
}

// Property: horizontal pixel symmetry — mirroring a pixel about the display
// center mirrors its yaw offset (at pitch 0).
func TestHorizontalSymmetry(t *testing.T) {
	v := testView(180, 0)
	check := func(pxRaw uint8) bool {
		px := int(pxRaw) % (v.Width / 2)
		py := v.Height / 2
		left, err1 := v.PanoramaCoord(px, py)
		right, err2 := v.PanoramaCoord(v.Width-1-px, py)
		if err1 != nil || err2 != nil {
			return false
		}
		dl := geom.WrapDeltaX(180, left.X)
		dr := geom.WrapDeltaX(180, right.X)
		return math.Abs(dl+dr) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleMap(t *testing.T) {
	v := View{Center: geom.Orientation{Yaw: 40, Pitch: 0}, FoVDeg: 100, Width: 16, Height: 12}
	m, err := v.SampleMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 16*12 {
		t.Fatalf("sample map size %d, want %d", len(m), 16*12)
	}
	for i, p := range m {
		if p.X < 0 || p.X >= 360 || p.Y < 0 || p.Y > 180 {
			t.Fatalf("sample %d out of panorama: %+v", i, p)
		}
	}
}

func TestCoveredTilesVsFoVBlock(t *testing.T) {
	// The exact gnomonic cover documents a subtlety of the paper's
	// "nine-tile FoV": the rectilinear projection's corners reach
	// atan(√2·tan 50°) ≈ 59° from center, so the true sampled area can
	// exceed the snapped 3×3 block (it stays within the 4×4 neighbourhood).
	grid, err := geom.NewGrid(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	v := testView(180, 0)
	covered, err := v.CoveredTiles(grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(covered) < 4 || len(covered) > 16 {
		t.Fatalf("covered %d tiles, want 4..16", len(covered))
	}
	// The center tile is always sampled, and every covered tile is within
	// one tile of the 3×3 block in each axis.
	centerTile := grid.TileAt(geom.Point{X: 180, Y: 90})
	foundCenter := false
	for _, id := range covered {
		if id == centerTile {
			foundCenter = true
		}
		dCol := id.Col - centerTile.Col
		if dCol > 4 {
			dCol -= 8
		}
		if dCol < -4 {
			dCol += 8
		}
		if dCol < -2 || dCol > 2 || id.Row < centerTile.Row-2 || id.Row > centerTile.Row+2 {
			t.Fatalf("sampled tile %+v too far from center %+v", id, centerTile)
		}
	}
	if !foundCenter {
		t.Fatal("center tile not sampled")
	}
}

func TestCoveredTilesValidation(t *testing.T) {
	grid, _ := geom.NewGrid(4, 8)
	v := testView(0, 0)
	if _, err := v.CoveredTiles(grid, 0); err == nil {
		t.Fatal("want error for zero stride")
	}
	bad := v
	bad.Width = 0
	if _, err := bad.CoveredTiles(grid, 1); err == nil {
		t.Fatal("want view validation error")
	}
	if _, err := v.CoveredTiles(geom.Grid{Rows: 12, Cols: 24}, 1); err == nil {
		t.Fatal("want error for a 288-tile grid")
	}
}

func TestOversamplingRatio(t *testing.T) {
	eq, err := OversamplingRatio(0)
	if err != nil || eq != 1 {
		t.Fatalf("equator ratio = %g, %v", eq, err)
	}
	mid, err := OversamplingRatio(60)
	if err != nil || math.Abs(mid-2) > 1e-9 {
		t.Fatalf("60° ratio = %g, want 2", mid)
	}
	pole, err := OversamplingRatio(90)
	if err != nil || !math.IsInf(pole, 1) {
		t.Fatalf("pole ratio = %g, want +Inf", pole)
	}
	if _, err := OversamplingRatio(91); err == nil {
		t.Fatal("want error for pitch > 90")
	}
	// Symmetry.
	up, _ := OversamplingRatio(45)
	down, _ := OversamplingRatio(-45)
	if up != down {
		t.Fatal("oversampling must be pitch-symmetric")
	}
}
