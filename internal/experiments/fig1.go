package experiments

import (
	"fmt"
	"strings"

	"ptile360/internal/geom"
	"ptile360/internal/ptile"
)

// Fig1Result is an ASCII rendering of one segment's panorama: the 4×8 tile
// grid, the training users' viewing centers, and the constructed Ptile(s) —
// the illustration of the paper's Fig. 1.
type Fig1Result struct {
	// VideoID and Segment locate the rendered snapshot.
	VideoID, Segment int
	// Lines is the character rendering, top row first.
	Lines []string
	// Ptiles are the rendered Ptile rectangles.
	Ptiles []geom.Rect
	// Users is the number of viewing centers drawn.
	Users int
}

// Fig1 renders the viewing centers and Ptiles of one segment of the given
// video as ASCII art: '·' panorama, '•' a viewing center, '#' Ptile
// interior, '@' a viewing center inside a Ptile. Tile boundaries are drawn
// every 45°.
func Fig1(videoID, segment int, scale Scale) (*Fig1Result, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	setup, err := setupVideo(videoID, scale)
	if err != nil {
		return nil, err
	}
	if segment < 0 || segment >= len(setup.Catalog.Ptiles) {
		return nil, fmt.Errorf("experiments: segment %d outside [0, %d)", segment, len(setup.Catalog.Ptiles))
	}

	const (
		cols = 72 // 5° per column
		rows = 18 // 10° per row
	)
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = make([]byte, cols)
	}
	set := func(x, y float64, ch byte) {
		c := int(geom.NormalizeYaw(x) / 360 * cols)
		r := int(y / 180 * rows)
		if c >= cols {
			c = cols - 1
		}
		if r >= rows {
			r = rows - 1
		}
		if r < 0 {
			r = 0
		}
		grid[r][c] = ch
	}
	inAnyPtile := func(p geom.Point, ptiles []ptile.Ptile) bool {
		for _, pt := range ptiles {
			if pt.Rect.Contains(p) {
				return true
			}
		}
		return false
	}

	ptiles := setup.Catalog.Ptiles[segment]
	// Paint backgrounds: '.' panorama, '#' Ptile interiors.
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			p := geom.Point{X: (float64(c) + 0.5) / cols * 360, Y: (float64(r) + 0.5) / rows * 180}
			if inAnyPtile(p, ptiles) {
				grid[r][c] = '#'
			} else {
				grid[r][c] = '.'
			}
		}
	}
	// Overlay viewing centers.
	users := 0
	for _, tr := range setup.Train {
		center, err := tr.ViewingCenter(segment, setup.Catalog.SegmentSec)
		if err != nil {
			continue
		}
		users++
		ch := byte('o')
		if inAnyPtile(center, ptiles) {
			ch = '@'
		}
		set(center.X, center.Y, ch)
	}

	res := &Fig1Result{VideoID: videoID, Segment: segment, Users: users}
	for _, pt := range ptiles {
		res.Ptiles = append(res.Ptiles, pt.Rect)
	}
	for r := 0; r < rows; r++ {
		var sb strings.Builder
		for c := 0; c < cols; c++ {
			sb.WriteByte(grid[r][c])
			// Tile-column boundary every 45° (9 columns of 5°).
			if (c+1)%9 == 0 && c != cols-1 {
				sb.WriteByte('|')
			}
		}
		res.Lines = append(res.Lines, sb.String())
		// Tile-row boundary every 45° (4.5 rows of 10°) — draw after rows
		// 4, 8 and 13 to approximate the 4-row grid.
		if r == 4 || r == 8 || r == 13 {
			res.Lines = append(res.Lines, strings.Repeat("-", cols+7))
		}
	}
	return res, nil
}

// Render formats the snapshot as a single-column table (one row per line).
func (r *Fig1Result) Render() Table {
	t := Table{
		Title: fmt.Sprintf("Fig. 1: video %d segment %d — %d viewing centers ('@' inside a Ptile), %d Ptile(s)",
			r.VideoID, r.Segment, r.Users, len(r.Ptiles)),
		Columns: []string{"panorama (360° × 180°, 45° tile boundaries)"},
	}
	for _, line := range r.Lines {
		t.Rows = append(t.Rows, []string{line})
	}
	for i, rect := range r.Ptiles {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("Ptile %d: %gx%g at (%g, %g)", i+1, rect.W, rect.H, rect.X0, rect.Y0)})
	}
	return t
}
