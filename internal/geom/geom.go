// Package geom implements the spherical and equirectangular geometry layer
// for 360° video: viewing orientations, panorama coordinates with longitude
// wrap-around, great-circle distances (the angle of the paper's Eq. 5
// view-switching speed), panorama rectangles, and tile-grid coverage.
//
// Conventions:
//   - Yaw ∈ [0, 360) degrees increases eastward; pitch ∈ [−90, +90] degrees
//     increases upward.
//   - Panorama (equirectangular) coordinates are (x, y) in degrees with
//     x ∈ [0, 360) (wraps) and y ∈ [0, 180] measured from the top edge
//     (y = 90 − pitch), matching the row/column tiling in the paper's Fig. 1.
package geom

import (
	"fmt"
	"math"
)

// DegPerRad converts radians to degrees.
const DegPerRad = 180 / math.Pi

// Orientation is a viewing direction on the unit sphere.
type Orientation struct {
	// Yaw is the horizontal angle in degrees, in [0, 360).
	Yaw float64
	// Pitch is the vertical angle in degrees, in [−90, +90].
	Pitch float64
}

// NormalizeYaw maps any angle to [0, 360).
func NormalizeYaw(deg float64) float64 {
	// Fast paths for the ranges the generators and session loops live in,
	// bit-identical to the fmod path: for |deg| < 360 the remainder is deg
	// itself, and for deg ∈ [360, 720) the subtraction deg−360 is exact
	// (Sterbenz). deg = −360 must fall through so the −0 the fmod path
	// produces is preserved.
	if deg >= 0 {
		if deg < 360 {
			return deg
		}
		if deg < 720 {
			return deg - 360
		}
	} else if deg > -360 {
		return deg + 360
	}
	m := math.Mod(deg, 360)
	if m < 0 {
		m += 360
	}
	return m
}

// ClampPitch limits a pitch angle to [−90, +90].
func ClampPitch(deg float64) float64 {
	if deg > 90 {
		return 90
	}
	if deg < -90 {
		return -90
	}
	return deg
}

// Normalize returns o with yaw wrapped and pitch clamped.
func (o Orientation) Normalize() Orientation {
	return Orientation{Yaw: NormalizeYaw(o.Yaw), Pitch: ClampPitch(o.Pitch)}
}

// Vector returns the unit direction vector of o in Cartesian coordinates.
func (o Orientation) Vector() [3]float64 {
	yaw := o.Yaw / DegPerRad
	pitch := o.Pitch / DegPerRad
	cp := math.Cos(pitch)
	return [3]float64{cp * math.Cos(yaw), cp * math.Sin(yaw), math.Sin(pitch)}
}

// AngleBetween returns the great-circle angle in degrees between two
// orientations. This is the arccos term of the paper's Eq. 5, with the
// orientation vectors already normalized to unit magnitude.
func AngleBetween(a, b Orientation) float64 {
	return AngleBetweenVectors(a.Vector(), b.Vector())
}

// AngleBetweenVectors is AngleBetween on precomputed unit direction vectors
// (Orientation.Vector forms). Bulk consumers — the switching-speed scans
// over 50 Hz traces — cache the previous sample's vector and call this to
// halve the trigonometry per pair.
func AngleBetweenVectors(va, vb [3]float64) float64 {
	dot := va[0]*vb[0] + va[1]*vb[1] + va[2]*vb[2]
	if dot > 1 {
		dot = 1
	}
	if dot < -1 {
		dot = -1
	}
	return math.Acos(dot) * DegPerRad
}

// Point is a position on the equirectangular panorama, in degrees.
type Point struct {
	// X is the horizontal coordinate in [0, 360), wrapping at the seam.
	X float64
	// Y is the vertical coordinate in [0, 180], 0 at the top edge.
	Y float64
}

// PointOf converts an orientation to its panorama coordinates.
func PointOf(o Orientation) Point {
	o = o.Normalize()
	return Point{X: o.Yaw, Y: 90 - o.Pitch}
}

// OrientationOf converts panorama coordinates back to an orientation.
func OrientationOf(p Point) Orientation {
	return Orientation{Yaw: NormalizeYaw(p.X), Pitch: ClampPitch(90 - p.Y)}
}

// WrapDeltaX returns the signed shortest horizontal offset from x1 to x2 on
// the wrapping panorama, in (−180, 180].
func WrapDeltaX(x1, x2 float64) float64 {
	// math.Mod(d, 360) is the identity for |d| < 360 (and for NaN), so the
	// fmod is only needed outside that range — which the generator and
	// session paths, whose coordinates stay in [0, 360), never hit.
	d := x2 - x1
	if d <= -360 || d >= 360 {
		d = math.Mod(d, 360)
	}
	if d > 180 {
		d -= 360
	}
	if d <= -180 {
		d += 360
	}
	return d
}

// Dist returns the wrap-aware Euclidean distance between two panorama points
// in degrees. This is the dist(u, n) of the paper's Algorithm 1; using the
// wrapped horizontal delta keeps clusters that straddle the panorama seam
// intact.
func Dist(a, b Point) float64 {
	dx := WrapDeltaX(a.X, b.X)
	dy := a.Y - b.Y
	return math.Hypot(dx, dy)
}

// Rect is an axis-aligned rectangle on the panorama. X spans [X0, X0+W)
// horizontally (wrapping) and [Y0, Y0+H) vertically. W ≤ 360, H ≤ 180.
type Rect struct {
	X0, Y0 float64
	W, H   float64
}

// Validate reports whether r has sane dimensions.
func (r Rect) Validate() error {
	if r.W <= 0 || r.W > 360 {
		return fmt.Errorf("geom: rect width %g outside (0, 360]", r.W)
	}
	if r.H <= 0 || r.H > 180 {
		return fmt.Errorf("geom: rect height %g outside (0, 180]", r.H)
	}
	if r.Y0 < 0 || r.Y0+r.H > 180+1e-9 {
		return fmt.Errorf("geom: rect vertical span [%g, %g] outside [0, 180]", r.Y0, r.Y0+r.H)
	}
	return nil
}

// Area returns the rectangle's area in square degrees.
func (r Rect) Area() float64 { return r.W * r.H }

// Contains reports whether p lies inside r, accounting for horizontal wrap.
func (r Rect) Contains(p Point) bool {
	if p.Y < r.Y0 || p.Y >= r.Y0+r.H {
		return false
	}
	dx := math.Mod(p.X-r.X0, 360)
	if dx < 0 {
		dx += 360
	}
	return dx < r.W
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: NormalizeYaw(r.X0 + r.W/2), Y: r.Y0 + r.H/2}
}
