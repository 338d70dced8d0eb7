package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalizeYaw(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0, 0}, {360, 0}, {-10, 350}, {370, 10}, {720, 0}, {-360, 0}, {359.5, 359.5},
	} {
		if got := NormalizeYaw(tc.in); !almostEqual(got, tc.want, 1e-9) {
			t.Fatalf("NormalizeYaw(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

func TestClampPitch(t *testing.T) {
	if ClampPitch(95) != 90 || ClampPitch(-95) != -90 || ClampPitch(45) != 45 {
		t.Fatal("ClampPitch misbehaves")
	}
}

func TestOrientationVectorUnit(t *testing.T) {
	check := func(yaw, pitch float64) bool {
		o := Orientation{Yaw: math.Mod(yaw, 360), Pitch: math.Mod(pitch, 90)}.Normalize()
		v := o.Vector()
		norm := math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
		return almostEqual(norm, 1, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAngleBetweenKnown(t *testing.T) {
	a := Orientation{Yaw: 0, Pitch: 0}
	b := Orientation{Yaw: 90, Pitch: 0}
	if got := AngleBetween(a, b); !almostEqual(got, 90, 1e-9) {
		t.Fatalf("AngleBetween = %g, want 90", got)
	}
	up := Orientation{Yaw: 0, Pitch: 90}
	if got := AngleBetween(a, up); !almostEqual(got, 90, 1e-9) {
		t.Fatalf("AngleBetween(up) = %g, want 90", got)
	}
	if got := AngleBetween(a, a); !almostEqual(got, 0, 1e-9) {
		t.Fatalf("AngleBetween(self) = %g, want 0", got)
	}
	anti := Orientation{Yaw: 180, Pitch: 0}
	if got := AngleBetween(a, anti); !almostEqual(got, 180, 1e-9) {
		t.Fatalf("AngleBetween(antipode) = %g, want 180", got)
	}
}

// Property: angle is symmetric and within [0, 180].
func TestAngleBetweenProperties(t *testing.T) {
	check := func(y1, p1, y2, p2 float64) bool {
		a := Orientation{Yaw: math.Mod(y1, 360), Pitch: math.Mod(p1, 90)}.Normalize()
		b := Orientation{Yaw: math.Mod(y2, 360), Pitch: math.Mod(p2, 90)}.Normalize()
		ab, ba := AngleBetween(a, b), AngleBetween(b, a)
		return almostEqual(ab, ba, 1e-9) && ab >= 0 && ab <= 180
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPointRoundTrip(t *testing.T) {
	check := func(yaw, pitch float64) bool {
		o := Orientation{Yaw: math.Mod(math.Abs(yaw), 360), Pitch: math.Mod(pitch, 89)}.Normalize()
		back := OrientationOf(PointOf(o))
		return almostEqual(back.Yaw, o.Yaw, 1e-9) && almostEqual(back.Pitch, o.Pitch, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWrapDeltaX(t *testing.T) {
	for _, tc := range []struct{ x1, x2, want float64 }{
		{10, 20, 10},
		{350, 10, 20},
		{10, 350, -20},
		{0, 180, 180},
		{0, 181, -179},
	} {
		if got := WrapDeltaX(tc.x1, tc.x2); !almostEqual(got, tc.want, 1e-9) {
			t.Fatalf("WrapDeltaX(%g, %g) = %g, want %g", tc.x1, tc.x2, got, tc.want)
		}
	}
}

func TestDistWrapAware(t *testing.T) {
	a := Point{X: 359, Y: 90}
	b := Point{X: 1, Y: 90}
	if got := Dist(a, b); !almostEqual(got, 2, 1e-9) {
		t.Fatalf("Dist across seam = %g, want 2", got)
	}
	c := Point{X: 10, Y: 50}
	d := Point{X: 13, Y: 54}
	if got := Dist(c, d); !almostEqual(got, 5, 1e-9) {
		t.Fatalf("Dist = %g, want 5", got)
	}
}

// Property: Dist is symmetric and satisfies the identity of indiscernibles.
func TestDistProperties(t *testing.T) {
	check := func(x1, y1, x2, y2 float64) bool {
		a := Point{X: NormalizeYaw(x1), Y: math.Mod(math.Abs(y1), 180)}
		b := Point{X: NormalizeYaw(x2), Y: math.Mod(math.Abs(y2), 180)}
		if !almostEqual(Dist(a, b), Dist(b, a), 1e-9) {
			return false
		}
		return Dist(a, a) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRectValidate(t *testing.T) {
	good := Rect{X0: 0, Y0: 40, W: 100, H: 100}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid rect rejected: %v", err)
	}
	bad := []Rect{
		{W: 0, H: 10, Y0: 0},
		{W: 400, H: 10, Y0: 0},
		{W: 10, H: 0, Y0: 0},
		{W: 10, H: 200, Y0: 0},
		{W: 10, H: 100, Y0: 100},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Fatalf("bad rect %d accepted: %+v", i, r)
		}
	}
}

func TestRectContainsWrap(t *testing.T) {
	r := Rect{X0: 330, Y0: 40, W: 60, H: 100}
	if !r.Contains(Point{X: 350, Y: 90}) {
		t.Fatal("point before seam should be inside")
	}
	if !r.Contains(Point{X: 10, Y: 90}) {
		t.Fatal("point after seam should be inside")
	}
	if r.Contains(Point{X: 100, Y: 90}) {
		t.Fatal("far point should be outside")
	}
	if r.Contains(Point{X: 350, Y: 20}) {
		t.Fatal("point above rect should be outside")
	}
}

func TestRectCenterWrap(t *testing.T) {
	r := Rect{X0: 330, Y0: 40, W: 60, H: 100}
	c := r.Center()
	if !almostEqual(c.X, 0, 1e-9) || !almostEqual(c.Y, 90, 1e-9) {
		t.Fatalf("Center = %+v, want (0, 90)", c)
	}
}
