package projection

import (
	"reflect"
	"testing"

	"ptile360/internal/geom"
)

// coveredTilesMapReference reimplements CoveredTiles with the pre-bitset
// map dedup, tracing pixels through the public one-shot PanoramaCoord.
func coveredTilesMapReference(t *testing.T, v View, grid geom.Grid, stride int) []geom.TileID {
	t.Helper()
	seen := make(map[geom.TileID]bool)
	var out []geom.TileID
	for py := 0; py < v.Height; py += stride {
		for px := 0; px < v.Width; px += stride {
			p, err := v.PanoramaCoord(px, py)
			if err != nil {
				t.Fatalf("PanoramaCoord(%d, %d): %v", px, py, err)
			}
			id := grid.TileAt(p)
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// TestCoveredTilesBitsetVsMap pins the bitset dedup path to the map
// reference tile-for-tile, including append order, across viewing centers
// that exercise the antimeridian seam and the poles.
func TestCoveredTilesBitsetVsMap(t *testing.T) {
	grids := []geom.Grid{{Rows: 4, Cols: 8}, {Rows: 16, Cols: 16}}
	centers := []geom.Orientation{
		{Yaw: 180, Pitch: 0},
		{Yaw: 0, Pitch: 0},      // FoV straddles the yaw-0/360 seam
		{Yaw: 359.5, Pitch: 0},  // just west of the antimeridian wrap
		{Yaw: 0.5, Pitch: 0},    // just east of it
		{Yaw: 90, Pitch: 85},    // near the top pole: rows saturate
		{Yaw: 270, Pitch: -85},  // near the bottom pole
		{Yaw: 180, Pitch: 89.9}, // pole-on view samples many columns
		{Yaw: 45.3, Pitch: -44.7},
	}
	for _, grid := range grids {
		for _, c := range centers {
			v := View{Center: c, FoVDeg: 100, Width: 64, Height: 64}
			got, err := v.CoveredTiles(grid, 2)
			if err != nil {
				t.Fatalf("grid %dx%d center %+v: %v", grid.Rows, grid.Cols, c, err)
			}
			want := coveredTilesMapReference(t, v, grid, 2)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("grid %dx%d center %+v: CoveredTiles %v, map reference %v",
					grid.Rows, grid.Cols, c, got, want)
			}
		}
	}
}

// TestCoveredTilesAntimeridian asserts a seam-straddling view reports tiles
// from both panorama edges — the wraparound case a naive [colLo, colHi]
// range would miss.
func TestCoveredTilesAntimeridian(t *testing.T) {
	grid := geom.Grid{Rows: 4, Cols: 8}
	v := View{Center: geom.Orientation{Yaw: 0, Pitch: 0}, FoVDeg: 100, Width: 64, Height: 64}
	tiles, err := v.CoveredTiles(grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	var west, east bool // columns adjacent to the seam on each side
	for _, id := range tiles {
		if id.Col == 0 {
			east = true
		}
		if id.Col == grid.Cols-1 {
			west = true
		}
	}
	if !west || !east {
		t.Fatalf("seam view missing a side: west=%v east=%v tiles=%v", west, east, tiles)
	}
}

// TestCoveredTilesNearPole asserts a pole-on view samples every column of
// the top row: at the pole all longitudes converge, so the rendered pixels
// land in every column.
func TestCoveredTilesNearPole(t *testing.T) {
	grid := geom.Grid{Rows: 4, Cols: 8}
	v := View{Center: geom.Orientation{Yaw: 90, Pitch: 89}, FoVDeg: 100, Width: 128, Height: 128}
	tiles, err := v.CoveredTiles(grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	topCols := make(map[int]bool)
	for _, id := range tiles {
		if id.Row < 0 || id.Row >= grid.Rows || id.Col < 0 || id.Col >= grid.Cols {
			t.Fatalf("tile %v outside grid", id)
		}
		if id.Row == 0 {
			topCols[id.Col] = true
		}
	}
	if len(topCols) != grid.Cols {
		t.Fatalf("pole view covered %d/%d top-row columns: %v", len(topCols), grid.Cols, tiles)
	}
}

// TestCoveredTilesDuplicateFree confirms the dedup never emits a tile twice.
func TestCoveredTilesDuplicateFree(t *testing.T) {
	grid := geom.Grid{Rows: 4, Cols: 8}
	v := View{Center: geom.Orientation{Yaw: 12, Pitch: 34}, FoVDeg: 120, Width: 96, Height: 96}
	tiles, err := v.CoveredTiles(grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[geom.TileID]bool)
	for _, id := range tiles {
		if seen[id] {
			t.Fatalf("tile %v emitted twice in %v", id, tiles)
		}
		seen[id] = true
	}
}
