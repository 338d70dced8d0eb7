// Package projection implements the view-generation geometry of 360° video
// playback (paper Section V-C1: "the view generation process only involves
// reading the pixel values from the memory based on the coordinate
// mapping"): the gnomonic (rectilinear) projection from a display pixel
// through the viewing orientation onto the equirectangular panorama.
//
// Besides powering a renderer, the mapping quantifies two facts the paper
// leans on: view generation is pure memory traffic (hence its low, frame-
// rate-proportional power P_r), and equirectangular frames oversample the
// poles (the Nontile scheme pays for pixels nobody resolves).
package projection

import (
	"fmt"
	"math"

	"ptile360/internal/geom"
)

// View describes a rendered viewport.
type View struct {
	// Center is the viewing orientation.
	Center geom.Orientation
	// FoVDeg is the horizontal and vertical field of view in degrees.
	FoVDeg float64
	// Width and Height are the display dimensions in pixels.
	Width, Height int
}

// Validate reports whether the view is renderable.
func (v View) Validate() error {
	if v.FoVDeg <= 0 || v.FoVDeg >= 180 {
		return fmt.Errorf("projection: FoV %g outside (0, 180)", v.FoVDeg)
	}
	if v.Width <= 0 || v.Height <= 0 {
		return fmt.Errorf("projection: non-positive dimensions %dx%d", v.Width, v.Height)
	}
	return nil
}

// PanoramaCoord maps the display pixel (px, py) — 0-indexed, top-left
// origin — to its sampling point on the equirectangular panorama via the
// gnomonic projection: the pixel defines a ray in view space, which is
// rotated by the viewing orientation and intersected with the unit sphere.
func (v View) PanoramaCoord(px, py int) (geom.Point, error) {
	if err := v.Validate(); err != nil {
		return geom.Point{}, err
	}
	if px < 0 || px >= v.Width || py < 0 || py >= v.Height {
		return geom.Point{}, fmt.Errorf("projection: pixel (%d, %d) outside %dx%d", px, py, v.Width, v.Height)
	}
	m := v.mapper()
	return m.coord(px, py), nil
}

// viewMapper holds the per-view constants of the gnomonic mapping so bulk
// tracers (SampleMap, CoveredTiles) pay the trigonometry once per view
// instead of once per pixel. The per-pixel arithmetic is unchanged, so every
// coordinate is bit-identical to the one-shot PanoramaCoord path.
type viewMapper struct {
	v              View
	half           float64
	cp, sp, cy, sy float64
}

func (v View) mapper() viewMapper {
	// Normalized image-plane half-extent: tan(FoV/2).
	half := math.Tan(v.FoVDeg / 2 / geom.DegPerRad)
	pitch := v.Center.Pitch / geom.DegPerRad
	yaw := v.Center.Yaw / geom.DegPerRad
	return viewMapper{
		v:    v,
		half: half,
		cp:   math.Cos(pitch), sp: math.Sin(pitch),
		cy: math.Cos(yaw), sy: math.Sin(yaw),
	}
}

func (m *viewMapper) coord(px, py int) geom.Point {
	// Normalized image-plane coordinates in [−tan(FoV/2), +tan(FoV/2)].
	u := (2*(float64(px)+0.5)/float64(m.v.Width) - 1) * m.half
	w := (1 - 2*(float64(py)+0.5)/float64(m.v.Height)) * m.half

	// Ray in view space: x forward, y left-right (east), z up.
	dir := [3]float64{1, u, w}
	norm := math.Sqrt(dir[0]*dir[0] + dir[1]*dir[1] + dir[2]*dir[2])
	for i := range dir {
		dir[i] /= norm
	}

	// Rotate by pitch (about y) then yaw (about z).
	x1 := dir[0]*m.cp - dir[2]*m.sp
	z1 := dir[0]*m.sp + dir[2]*m.cp
	y1 := dir[1]
	x2 := x1*m.cy - y1*m.sy
	y2 := x1*m.sy + y1*m.cy

	o := geom.Orientation{
		Yaw:   math.Atan2(y2, x2) * geom.DegPerRad,
		Pitch: math.Asin(clamp(z1, -1, 1)) * geom.DegPerRad,
	}
	return geom.PointOf(o.Normalize())
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SampleMap computes the panorama sampling coordinate of every display pixel
// (row-major). This is exactly the lookup table a real view renderer builds
// once per orientation — its size bounds the per-frame memory traffic behind
// the paper's P_r model.
func (v View) SampleMap() ([]geom.Point, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	m := v.mapper()
	out := make([]geom.Point, 0, v.Width*v.Height)
	for py := 0; py < v.Height; py++ {
		for px := 0; px < v.Width; px++ {
			out = append(out, m.coord(px, py))
		}
	}
	return out, nil
}

// CoveredTiles returns the grid tiles the rendered view actually samples,
// by tracing the view's pixel grid at the given stride (1 = every pixel).
// This is the ground truth the FoV tile heuristics approximate.
func (v View) CoveredTiles(grid geom.Grid, stride int) ([]geom.TileID, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if stride <= 0 {
		return nil, fmt.Errorf("projection: non-positive stride %d", stride)
	}
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	m := v.mapper()
	// Bitset dedup: first-seen append order, no per-view map.
	var out []geom.TileID
	var seen geom.TileSet
	for py := 0; py < v.Height; py += stride {
		for px := 0; px < v.Width; px += stride {
			id := grid.TileAt(m.coord(px, py))
			if idx := grid.Index(id); !seen.Contains(idx) {
				seen.Add(idx)
				out = append(out, id)
			}
		}
	}
	return out, nil
}

// OversamplingRatio quantifies the equirectangular format's polar waste: the
// ratio between the panorama's pixel count and the pixels a viewer at the
// given pitch band actually resolves per unit solid angle, relative to the
// equator. At pitch 0 the ratio is 1; toward ±90° it diverges as 1/cos —
// bits the Nontile scheme spends that tiled schemes skip.
func OversamplingRatio(pitchDeg float64) (float64, error) {
	if pitchDeg < -90 || pitchDeg > 90 {
		return 0, fmt.Errorf("projection: pitch %g outside [-90, 90]", pitchDeg)
	}
	c := math.Cos(pitchDeg / geom.DegPerRad)
	if c < 1e-9 {
		return math.Inf(1), nil
	}
	return 1 / c, nil
}
