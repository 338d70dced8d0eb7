package geom

import (
	"math"
	"sort"
	"testing"
)

// tileSetAndMap builds a TileSet and the map[TileID]bool reference from the
// same tile slice.
func tileSetAndMap(g Grid, tiles []TileID) (TileSet, map[TileID]bool) {
	var s TileSet
	m := make(map[TileID]bool, len(tiles))
	for _, id := range tiles {
		s.Add(g.Index(id))
		m[id] = true
	}
	return s, m
}

// checkSetVsMap asserts every TileSet operation agrees with the map
// reference on grid g.
func checkSetVsMap(t *testing.T, g Grid, s TileSet, m map[TileID]bool) {
	t.Helper()
	if got, want := s.Count(), len(m); got != want {
		t.Fatalf("grid %dx%d: Count() = %d, map has %d", g.Rows, g.Cols, got, want)
	}
	if got, want := s.IsEmpty(), len(m) == 0; got != want {
		t.Fatalf("IsEmpty() = %v with %d members", got, len(m))
	}
	for row := 0; row < g.Rows; row++ {
		for col := 0; col < g.Cols; col++ {
			id := TileID{Row: row, Col: col}
			if got, want := s.Contains(g.Index(id)), m[id]; got != want {
				t.Fatalf("Contains(%v) = %v, map says %v", id, got, want)
			}
		}
	}
	want := make([]int, 0, len(m))
	for id := range m {
		want = append(want, g.Index(id))
	}
	sort.Ints(want)
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d indices, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want ascending %v", got, want)
		}
	}
}

func TestTileSetOpsVsMap(t *testing.T) {
	g := Grid{Rows: 4, Cols: 8}
	a := g.FoVTiles(Point{X: 350, Y: 90}, 100, 100)  // wraps the seam
	b := g.FoVTiles(Point{X: 100, Y: 10}, 100, 100)  // clipped at the pole
	c := g.FoVTiles(Point{X: 120, Y: 100}, 100, 100) // overlaps b's columns

	sa, ma := tileSetAndMap(g, a)
	sb, mb := tileSetAndMap(g, b)
	sc, mc := tileSetAndMap(g, c)
	checkSetVsMap(t, g, sa, ma)
	checkSetVsMap(t, g, sb, mb)

	union := sb
	union.Union(sc)
	mu := make(map[TileID]bool)
	for id := range mb {
		mu[id] = true
	}
	for id := range mc {
		mu[id] = true
	}
	checkSetVsMap(t, g, union, mu)

	// CountIn = |a ∩ union| against the map intersection.
	wantInter := 0
	for id := range ma {
		if mu[id] {
			wantInter++
		}
	}
	if got := sa.CountIn(union); got != wantInter {
		t.Fatalf("CountIn = %d, want %d", got, wantInter)
	}
	if got, want := sa.Intersects(union), wantInter > 0; got != want {
		t.Fatalf("Intersects = %v, want %v", got, want)
	}

	// ContainsAll: union ⊇ sb by construction; sb ⊉ union unless equal.
	if !union.ContainsAll(sb) {
		t.Fatal("union should contain all of sb")
	}
	if union.Count() > sb.Count() && sb.ContainsAll(union) {
		t.Fatal("strict subset claims to contain its superset")
	}
}

func TestTileSetZeroValueEmpty(t *testing.T) {
	var s TileSet
	if !s.IsEmpty() || s.Count() != 0 {
		t.Fatalf("zero TileSet not empty: count %d", s.Count())
	}
	s.ForEach(func(i int) { t.Fatalf("ForEach visited %d on empty set", i) })
	var other TileSet
	other.Add(5)
	if !other.ContainsAll(s) {
		t.Fatal("every set contains the empty set")
	}
	if s.ContainsAll(other) {
		t.Fatal("empty set contains a non-empty set")
	}
}

// TestGridSetSupported holds Grid.Validate and NewGrid to the TileSet bound:
// a grid of at most MaxTileSetTiles tiles is accepted, a larger one refused.
func TestGridSetSupported(t *testing.T) {
	for _, tc := range []struct {
		g    Grid
		want bool
	}{
		{Grid{Rows: 4, Cols: 8}, true},
		{Grid{Rows: 12, Cols: 24}, false}, // 288 tiles > 256
		{Grid{Rows: 16, Cols: 16}, true},
		{Grid{Rows: 32, Cols: 32}, false},
		{Grid{Rows: 1 << 40, Cols: 1 << 40}, false}, // the tile count overflows int
	} {
		if got := tc.g.Validate() == nil; got != tc.want {
			t.Fatalf("Validate(%dx%d) ok = %v, want %v", tc.g.Rows, tc.g.Cols, got, tc.want)
		}
		g, err := NewGrid(tc.g.Rows, tc.g.Cols)
		if (err == nil) != tc.want {
			t.Fatalf("NewGrid(%d, %d) = %v, want ok %v", tc.g.Rows, tc.g.Cols, err, tc.want)
		}
		if tc.want && g != tc.g {
			t.Fatalf("NewGrid(%d, %d) = %+v", tc.g.Rows, tc.g.Cols, g)
		}
	}
}

func TestTileOfIndexRoundTrip(t *testing.T) {
	g := Grid{Rows: 5, Cols: 7}
	for i := 0; i < g.NumTiles(); i++ {
		if got := g.Index(g.TileOfIndex(i)); got != i {
			t.Fatalf("Index(TileOfIndex(%d)) = %d", i, got)
		}
	}
}

func TestRectCoverSetMatchesPredicate(t *testing.T) {
	g := Grid{Rows: 4, Cols: 8}
	rects := []Rect{
		{X0: 0, Y0: 0, W: 360, H: 180},
		{X0: 315, Y0: 45, W: 135, H: 90}, // wraps the seam
		{X0: 90, Y0: 0, W: 45, H: 45},
		{X0: 10, Y0: 100, W: 1, H: 1}, // covers no tile center
	}
	for _, r := range rects {
		s := g.RectCoverSet(r)
		for row := 0; row < g.Rows; row++ {
			for col := 0; col < g.Cols; col++ {
				id := TileID{Row: row, Col: col}
				want := r.Contains(g.TileRect(id).Center())
				if got := s.Contains(g.Index(id)); got != want {
					t.Fatalf("rect %+v tile %v: set %v, predicate %v", r, id, got, want)
				}
			}
		}
	}
}

// FuzzTileSetVsMap drives TileSet through random grids, orientations, and
// FoVs and checks add/union/contains/count/iterate against the
// map[TileID]bool reference the code used before the bitset existed.
func FuzzTileSetVsMap(f *testing.F) {
	f.Add(uint8(4), uint8(8), 350.0, 90.0, 10.0, 170.0, 100.0, 100.0)
	f.Add(uint8(1), uint8(1), 0.0, 0.0, 359.9, 180.0, 360.0, 180.0)
	f.Add(uint8(16), uint8(16), 123.4, 5.0, 270.0, 90.0, 33.0, 150.0)
	f.Add(uint8(12), uint8(13), -400.0, 10.0, 720.5, 60.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, rows8, cols8 uint8, x1, y1, x2, y2, hFoV, vFoV float64) {
		for _, v := range []float64{x1, y1, x2, y2, hFoV, vFoV} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		g := Grid{Rows: int(rows8)%16 + 1, Cols: int(cols8)%16 + 1}
		// Clamp the FoV into the domain FoVTiles is defined on; the y
		// coordinates just need to be finite (TileAt clamps rows).
		hFoV = math.Mod(math.Abs(hFoV), 361)
		vFoV = math.Mod(math.Abs(vFoV), 181)
		p1 := Point{X: NormalizeYaw(x1), Y: math.Mod(math.Abs(y1), 181)}
		p2 := Point{X: NormalizeYaw(x2), Y: math.Mod(math.Abs(y2), 181)}

		ta := g.FoVTiles(p1, hFoV, vFoV)
		tb := g.FoVTiles(p2, hFoV, vFoV)
		sa, ma := tileSetAndMap(g, ta)
		sb, mb := tileSetAndMap(g, tb)
		checkSetVsMap(t, g, sa, ma)
		checkSetVsMap(t, g, sb, mb)

		union := sa
		union.Union(sb)
		mu := make(map[TileID]bool, len(ma)+len(mb))
		for id := range ma {
			mu[id] = true
		}
		for id := range mb {
			mu[id] = true
		}
		checkSetVsMap(t, g, union, mu)

		wantInter := 0
		for id := range ma {
			if mb[id] {
				wantInter++
			}
		}
		if got := sa.CountIn(sb); got != wantInter {
			t.Fatalf("CountIn = %d, want %d", got, wantInter)
		}
		if got, want := sa.Intersects(sb), wantInter > 0; got != want {
			t.Fatalf("Intersects = %v, want %v", got, want)
		}
		wantSubset := true
		for id := range ma {
			if !mu[id] {
				wantSubset = false
			}
		}
		if got := union.ContainsAll(sa); got != wantSubset {
			t.Fatalf("ContainsAll = %v, want %v", got, wantSubset)
		}
	})
}
