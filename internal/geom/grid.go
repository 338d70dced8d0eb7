package geom

import (
	"fmt"
	"math"
)

// Grid describes a fixed tiling of the equirectangular panorama into
// Rows × Cols tiles, e.g. the conventional 4×8 layout in the paper's Fig. 1.
type Grid struct {
	Rows, Cols int
}

// NewGrid validates and returns a tile grid.
func NewGrid(rows, cols int) (Grid, error) {
	g := Grid{Rows: rows, Cols: cols}
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// Validate reports whether g is usable: both dimensions positive and at
// most MaxTileSetTiles tiles, so that every tile set over g fits a TileSet.
func (g Grid) Validate() error {
	if g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("geom: invalid grid %dx%d", g.Rows, g.Cols)
	}
	// Rows > Max/Cols is Rows·Cols > Max without the product overflowing.
	if g.Rows > MaxTileSetTiles/g.Cols {
		return fmt.Errorf("geom: grid %dx%d has more than %d tiles", g.Rows, g.Cols, MaxTileSetTiles)
	}
	return nil
}

// TileW returns the tile width in degrees.
func (g Grid) TileW() float64 { return 360 / float64(g.Cols) }

// TileH returns the tile height in degrees.
func (g Grid) TileH() float64 { return 180 / float64(g.Rows) }

// NumTiles returns the total number of tiles.
func (g Grid) NumTiles() int { return g.Rows * g.Cols }

// TileID identifies one tile in a grid by row (top to bottom) and column
// (left to right).
type TileID struct {
	Row, Col int
}

// Index returns the linear index of t in grid g (row-major).
func (g Grid) Index(t TileID) int { return t.Row*g.Cols + t.Col }

// TileAt returns the tile containing panorama point p.
func (g Grid) TileAt(p Point) TileID {
	col := int(NormalizeYaw(p.X) / g.TileW())
	if col >= g.Cols {
		col = g.Cols - 1
	}
	row := int(p.Y / g.TileH())
	if row >= g.Rows {
		row = g.Rows - 1
	}
	if row < 0 {
		row = 0
	}
	return TileID{Row: row, Col: col}
}

// TileRect returns the panorama rectangle covered by tile t.
func (g Grid) TileRect(t TileID) Rect {
	return Rect{
		X0: float64(t.Col) * g.TileW(),
		Y0: float64(t.Row) * g.TileH(),
		W:  g.TileW(),
		H:  g.TileH(),
	}
}

// CoveringTiles returns the exact set of tiles intersecting rectangle r, in
// row-major order. Horizontal wrap-around is handled: a FoV straddling the
// panorama seam returns tiles from both edges.
func (g Grid) CoveringTiles(r Rect) []TileID {
	rowLo := int(r.Y0 / g.TileH())
	rowHi := int((r.Y0 + r.H - 1e-9) / g.TileH())
	if rowLo < 0 {
		rowLo = 0
	}
	if rowHi >= g.Rows {
		rowHi = g.Rows - 1
	}

	x0 := NormalizeYaw(r.X0)
	colLo := int(x0 / g.TileW())
	// Exact cover: the right edge x0+W may spill past tile boundaries, so the
	// span is boundary-dependent (⌈W/tileW⌉ or one more when misaligned).
	span := int((x0+r.W-1e-9)/g.TileW()) - colLo + 1
	if span > g.Cols {
		span = g.Cols
	}

	tiles := make([]TileID, 0, (rowHi-rowLo+1)*span)
	for row := rowLo; row <= rowHi; row++ {
		for k := 0; k < span; k++ {
			col := (colLo + k) % g.Cols
			tiles = append(tiles, TileID{Row: row, Col: col})
		}
	}
	return tiles
}

// FoVTiles returns the grid-snapped block of tiles the conventional (Ctile)
// scheme requests for a viewer at center: ⌈hFoV/tileW⌉ × ⌈vFoV/tileH⌉ tiles
// centered on the tile containing the viewing center, clipped at the poles.
// For the paper's 100°×100° FoV on a 4×8 grid this is the 3×3 = nine-tile
// FoV block of Section II.
func (g Grid) FoVTiles(center Point, hFoV, vFoV float64) []TileID {
	return g.fovTilesFromTile(g.TileAt(center), hFoV, vFoV)
}

// fovTilesFromTile is the FoVTiles core: the block depends on the viewing
// center only through the tile containing it, which is exactly the
// quantization the FoV LUT is keyed on (one entry per center tile, no
// floating-point approximation).
func (g Grid) fovTilesFromTile(c TileID, hFoV, vFoV float64) []TileID {
	nCols := int(math.Ceil(hFoV / g.TileW()))
	if nCols > g.Cols {
		nCols = g.Cols
	}
	if nCols < 1 {
		nCols = 1
	}
	nRows := int(math.Ceil(vFoV / g.TileH()))
	if nRows > g.Rows {
		nRows = g.Rows
	}
	if nRows < 1 {
		nRows = 1
	}
	rowLo := c.Row - nRows/2
	rowHi := rowLo + nRows - 1
	// Clip at the poles, keeping the block size by shifting inward.
	if rowLo < 0 {
		rowHi -= rowLo
		rowLo = 0
	}
	if rowHi >= g.Rows {
		rowLo -= rowHi - (g.Rows - 1)
		rowHi = g.Rows - 1
	}
	if rowLo < 0 {
		rowLo = 0
	}
	colLo := c.Col - nCols/2
	tiles := make([]TileID, 0, (rowHi-rowLo+1)*nCols)
	for row := rowLo; row <= rowHi; row++ {
		for k := 0; k < nCols; k++ {
			col := ((colLo+k)%g.Cols + g.Cols) % g.Cols
			tiles = append(tiles, TileID{Row: row, Col: col})
		}
	}
	return tiles
}

// BoundingRect returns the smallest grid-aligned rectangle covering all the
// given tiles, assuming they form a horizontally contiguous block modulo
// wrap. It is used to carve a Ptile out of the union of conventional tiles.
func (g Grid) BoundingRect(tiles []TileID) (Rect, error) {
	if len(tiles) == 0 {
		return Rect{}, fmt.Errorf("geom: no tiles to bound")
	}
	rowLo, rowHi := tiles[0].Row, tiles[0].Row
	present := make([]bool, g.Cols)
	for _, t := range tiles {
		if t.Row < rowLo {
			rowLo = t.Row
		}
		if t.Row > rowHi {
			rowHi = t.Row
		}
		present[t.Col] = true
	}
	return g.boundRect(rowLo, rowHi, present)
}

// BoundingRectOfSet is BoundingRect over a TileSet. The result depends only
// on the row span and the set of occupied columns, so it is byte-identical
// to BoundingRect over any tile slice with the same membership.
func (g Grid) BoundingRectOfSet(s TileSet) (Rect, error) {
	if s.IsEmpty() {
		return Rect{}, fmt.Errorf("geom: no tiles to bound")
	}
	rowLo, rowHi := g.Rows, -1
	present := make([]bool, g.Cols)
	s.ForEach(func(i int) {
		row, col := i/g.Cols, i%g.Cols
		if row < rowLo {
			rowLo = row
		}
		if row > rowHi {
			rowHi = row
		}
		present[col] = true
	})
	return g.boundRect(rowLo, rowHi, present)
}

// boundRect finds the contiguous column arc (mod Cols) covering all present
// columns with the shortest width, trying each present column as the start.
// Candidate starts are scanned in ascending column order with a strict
// improvement test, so ties resolve to the lowest start deterministically.
func (g Grid) boundRect(rowLo, rowHi int, present []bool) (Rect, error) {
	bestStart, bestSpan := -1, g.Cols+1
	for start := 0; start < g.Cols; start++ {
		if !present[start] {
			continue
		}
		span := 0
		for k := 0; k < g.Cols; k++ {
			if present[(start+k)%g.Cols] {
				span = k + 1
			}
		}
		if span < bestSpan {
			bestStart, bestSpan = start, span
		}
	}
	if bestStart < 0 {
		return Rect{}, fmt.Errorf("geom: no columns present")
	}
	return Rect{
		X0: float64(bestStart) * g.TileW(),
		Y0: float64(rowLo) * g.TileH(),
		W:  float64(bestSpan) * g.TileW(),
		H:  float64(rowHi-rowLo+1) * g.TileH(),
	}, nil
}
