package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, rows, cols int) Grid {
	t.Helper()
	g, err := NewGrid(rows, cols)
	if err != nil {
		t.Fatalf("NewGrid(%d,%d): %v", rows, cols, err)
	}
	return g
}

// TestNewGridValidation holds Grid.Validate, the one grid check, and NewGrid
// to positive dimensions; TestGridSetSupported holds them to the tile bound.
func TestNewGridValidation(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int
		ok         bool
	}{
		{4, 8, true},
		{0, 8, false},  // no rows
		{4, -1, false}, // negative columns
		{-4, -8, false},
	} {
		err := Grid{Rows: tc.rows, Cols: tc.cols}.Validate()
		if (err == nil) != tc.ok {
			t.Fatalf("Validate(%dx%d) = %v, want ok %v", tc.rows, tc.cols, err, tc.ok)
		}
		g, err := NewGrid(tc.rows, tc.cols)
		if (err == nil) != tc.ok {
			t.Fatalf("NewGrid(%d, %d) = %v, want ok %v", tc.rows, tc.cols, err, tc.ok)
		}
		if tc.ok && g != (Grid{Rows: tc.rows, Cols: tc.cols}) {
			t.Fatalf("NewGrid(%d, %d) = %+v", tc.rows, tc.cols, g)
		}
	}
}

func TestGridDimensions(t *testing.T) {
	g := mustGrid(t, 4, 8)
	if g.TileW() != 45 || g.TileH() != 45 {
		t.Fatalf("tile dims = %gx%g, want 45x45", g.TileW(), g.TileH())
	}
	if g.NumTiles() != 32 {
		t.Fatalf("NumTiles = %d, want 32", g.NumTiles())
	}
}

func TestTileAt(t *testing.T) {
	g := mustGrid(t, 4, 8)
	for _, tc := range []struct {
		p    Point
		want TileID
	}{
		{Point{X: 0, Y: 0}, TileID{0, 0}},
		{Point{X: 44.9, Y: 44.9}, TileID{0, 0}},
		{Point{X: 45, Y: 45}, TileID{1, 1}},
		{Point{X: 359.9, Y: 179.9}, TileID{3, 7}},
		{Point{X: 360, Y: 180}, TileID{3, 0}}, // wraps/clamps
	} {
		if got := g.TileAt(tc.p); got != tc.want {
			t.Fatalf("TileAt(%+v) = %+v, want %+v", tc.p, got, tc.want)
		}
	}
}

func TestTileRectRoundTrip(t *testing.T) {
	g := mustGrid(t, 4, 8)
	for row := 0; row < 4; row++ {
		for col := 0; col < 8; col++ {
			id := TileID{Row: row, Col: col}
			r := g.TileRect(id)
			if got := g.TileAt(r.Center()); got != id {
				t.Fatalf("center of tile %+v maps to %+v", id, got)
			}
		}
	}
}

func TestIndexRowMajor(t *testing.T) {
	g := mustGrid(t, 4, 8)
	if g.Index(TileID{0, 0}) != 0 || g.Index(TileID{1, 0}) != 8 || g.Index(TileID{3, 7}) != 31 {
		t.Fatal("row-major indexing broken")
	}
}

func TestCoveringTilesFoV(t *testing.T) {
	g := mustGrid(t, 4, 8)
	// Exact cover of a misaligned 100x100 FoV centered at the equator
	// touches a 4x4 block of 45° tiles.
	tiles := g.CoveringTiles(Rect{X0: 130, Y0: 40, W: 100, H: 100})
	if len(tiles) != 16 {
		t.Fatalf("covering tiles = %d, want 16 (got %v)", len(tiles), tiles)
	}
	// An aligned 90x90 rect covers exactly 2x2.
	aligned := Rect{X0: 90, Y0: 45, W: 90, H: 90}
	if got := g.CoveringTiles(aligned); len(got) != 4 {
		t.Fatalf("aligned cover = %d tiles, want 4", len(got))
	}
}

func TestFoVTilesNineTileBlock(t *testing.T) {
	g := mustGrid(t, 4, 8)
	// The paper's nine-tile FoV: 100°×100° on a 4×8 grid snaps to 3×3.
	tiles := g.FoVTiles(Point{X: 180, Y: 90}, 100, 100)
	if len(tiles) != 9 {
		t.Fatalf("FoV tiles = %d, want 9 (got %v)", len(tiles), tiles)
	}
	rows, cols := map[int]bool{}, map[int]bool{}
	for _, tl := range tiles {
		rows[tl.Row] = true
		cols[tl.Col] = true
	}
	if len(rows) != 3 || len(cols) != 3 {
		t.Fatalf("block shape %dx%d, want 3x3", len(rows), len(cols))
	}
}

func TestFoVTilesClipsAtPole(t *testing.T) {
	g := mustGrid(t, 4, 8)
	// Looking straight up: the 3-row block must shift inward, not go negative.
	tiles := g.FoVTiles(Point{X: 0, Y: 1}, 100, 100)
	if len(tiles) != 9 {
		t.Fatalf("FoV tiles at pole = %d, want 9", len(tiles))
	}
	for _, tl := range tiles {
		if tl.Row < 0 || tl.Row >= 4 {
			t.Fatalf("row %d out of range", tl.Row)
		}
	}
}

func TestFoVTilesWrapsSeam(t *testing.T) {
	g := mustGrid(t, 4, 8)
	tiles := g.FoVTiles(Point{X: 5, Y: 90}, 100, 100)
	cols := map[int]bool{}
	for _, tl := range tiles {
		cols[tl.Col] = true
	}
	if !cols[7] || !cols[0] {
		t.Fatalf("seam FoV block missing wrap columns: %v", cols)
	}
}

func TestCoveringTilesWrap(t *testing.T) {
	g := mustGrid(t, 4, 8)
	r := Rect{X0: 350, Y0: 45, W: 60, H: 45}
	tiles := g.CoveringTiles(r)
	// Spans columns 7, 0 (and possibly 1) in row 1.
	cols := map[int]bool{}
	for _, tl := range tiles {
		if tl.Row != 1 {
			t.Fatalf("unexpected row %d", tl.Row)
		}
		cols[tl.Col] = true
	}
	if !cols[7] || !cols[0] {
		t.Fatalf("wrap columns missing: %v", cols)
	}
}

func TestCoveringTilesFullWidth(t *testing.T) {
	g := mustGrid(t, 4, 8)
	r := Rect{X0: 17, Y0: 0, W: 360, H: 45}
	tiles := g.CoveringTiles(r)
	if len(tiles) != 8 {
		t.Fatalf("full-width cover = %d tiles, want 8", len(tiles))
	}
	seen := map[int]bool{}
	for _, tl := range tiles {
		if seen[tl.Col] {
			t.Fatalf("column %d duplicated", tl.Col)
		}
		seen[tl.Col] = true
	}
}

// Property: every point inside a rect lies in one of its covering tiles.
func TestCoveringTilesContainment(t *testing.T) {
	g := mustGrid(t, 4, 8)
	check := func(x0, y0, w, h, px, py float64) bool {
		r := Rect{
			X0: NormalizeYaw(x0),
			Y0: math.Mod(math.Abs(y0), 120),
			W:  math.Mod(math.Abs(w), 200) + 10,
			H:  math.Mod(math.Abs(h), 50) + 10,
		}
		if r.Y0+r.H > 180 {
			r.H = 180 - r.Y0
		}
		// Sample a point inside the rect.
		fx := math.Mod(math.Abs(px), 1)
		fy := math.Mod(math.Abs(py), 1)
		p := Point{X: NormalizeYaw(r.X0 + fx*r.W), Y: r.Y0 + fy*r.H*0.999}
		tiles := g.CoveringTiles(r)
		want := g.TileAt(p)
		for _, tl := range tiles {
			if tl == want {
				return true
			}
		}
		return false
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundingRectSimple(t *testing.T) {
	g := mustGrid(t, 4, 8)
	tiles := []TileID{{1, 2}, {1, 3}, {2, 2}, {2, 3}}
	r, err := g.BoundingRect(tiles)
	if err != nil {
		t.Fatalf("BoundingRect: %v", err)
	}
	if r.X0 != 90 || r.W != 90 || r.Y0 != 45 || r.H != 90 {
		t.Fatalf("bound = %+v", r)
	}
}

func TestBoundingRectWrap(t *testing.T) {
	g := mustGrid(t, 4, 8)
	tiles := []TileID{{1, 7}, {1, 0}}
	r, err := g.BoundingRect(tiles)
	if err != nil {
		t.Fatalf("BoundingRect: %v", err)
	}
	if r.W != 90 {
		t.Fatalf("wrap bound width = %g, want 90", r.W)
	}
	if r.X0 != 315 {
		t.Fatalf("wrap bound X0 = %g, want 315", r.X0)
	}
}

func TestBoundingRectEmpty(t *testing.T) {
	g := mustGrid(t, 4, 8)
	if _, err := g.BoundingRect(nil); err == nil {
		t.Fatal("want error for empty tile set")
	}
}

// Property: the bounding rect contains the center of every input tile.
func TestBoundingRectCoversTiles(t *testing.T) {
	g := mustGrid(t, 4, 8)
	check := func(seed uint8, n uint8) bool {
		count := int(n%5) + 1
		// Build a contiguous run of tiles starting at (row, col) derived from
		// the seed, as Ptile construction always does.
		row := int(seed) % 3
		col := int(seed/4) % 8
		tiles := make([]TileID, 0, count*2)
		for k := 0; k < count; k++ {
			tiles = append(tiles, TileID{Row: row, Col: (col + k) % 8})
			tiles = append(tiles, TileID{Row: row + 1, Col: (col + k) % 8})
		}
		r, err := g.BoundingRect(tiles)
		if err != nil {
			return false
		}
		for _, tl := range tiles {
			if !r.Contains(g.TileRect(tl).Center()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFoVTilesSmallFoV(t *testing.T) {
	g := mustGrid(t, 4, 8)
	// A FoV smaller than one tile snaps to a single tile.
	tiles := g.FoVTiles(Point{X: 100, Y: 100}, 30, 30)
	if len(tiles) != 1 {
		t.Fatalf("small FoV covers %d tiles, want 1", len(tiles))
	}
	if want := g.TileAt(Point{X: 100, Y: 100}); tiles[0] != want {
		t.Fatalf("small FoV tile %+v, want %+v", tiles[0], want)
	}
}

func TestFoVTilesFullPanorama(t *testing.T) {
	g := mustGrid(t, 4, 8)
	tiles := g.FoVTiles(Point{X: 0, Y: 90}, 360, 180)
	if len(tiles) != 32 {
		t.Fatalf("full-panorama FoV covers %d tiles, want 32", len(tiles))
	}
}
