package geom

import (
	"math"
	"reflect"
	"testing"
)

// TestFoVLUTMatchesFoVTiles pins the LUT to the sampling reference: for
// every center tile of several grids and FoVs, the table row must equal
// Grid.FoVTiles element-for-element, and the mask must be the same set.
func TestFoVLUTMatchesFoVTiles(t *testing.T) {
	defer ResetFoVLUTCache()
	grids := []Grid{{4, 8}, {1, 1}, {3, 5}, {16, 16}, {6, 6}}
	fovs := [][2]float64{{100, 100}, {90, 60}, {360, 180}, {30, 30}, {1, 1}}
	for _, g := range grids {
		for _, fov := range fovs {
			lut := FoVLUTFor(g, fov[0], fov[1])
			if lut == nil {
				t.Fatalf("nil LUT for supported grid %dx%d", g.Rows, g.Cols)
			}
			for i := 0; i < g.NumTiles(); i++ {
				c := g.TileOfIndex(i)
				center := g.TileRect(c).Center()
				want := g.FoVTiles(center, fov[0], fov[1])
				if got := lut.TilesAt(center); !reflect.DeepEqual(got, want) {
					t.Fatalf("grid %dx%d fov %v tile %v: LUT %v, FoVTiles %v",
						g.Rows, g.Cols, fov, c, got, want)
				}
				wantSet, _ := tileSetAndMap(g, want)
				if lut.SetAt(center) != wantSet {
					t.Fatalf("grid %dx%d fov %v tile %v: mask differs from tile list",
						g.Rows, g.Cols, fov, c)
				}
			}
		}
	}
}

// TestFoVLUTRandomCenters sweeps random viewing centers — including seam and
// pole neighborhoods — and checks the LUT lookup equals the direct call.
func TestFoVLUTRandomCenters(t *testing.T) {
	defer ResetFoVLUTCache()
	g := Grid{Rows: 4, Cols: 8}
	lut := FoVLUTFor(g, 100, 100)
	// Deterministic pseudo-random sweep (fixed linear congruence).
	state := uint64(1)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := 0; i < 2000; i++ {
		p := Point{X: next() * 360, Y: next() * 180}
		if i%5 == 0 {
			p.X = 359.999 + next()*0.002 // straddle the seam
		}
		if i%7 == 0 {
			p.Y = next() * 2 // near the top pole
		}
		want := g.FoVTiles(p, 100, 100)
		if got := lut.TilesAt(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("center %+v: LUT %v, FoVTiles %v", p, got, want)
		}
	}
}

func TestFoVLUTUnsupportedGridNil(t *testing.T) {
	defer ResetFoVLUTCache()
	if lut := FoVLUTFor(Grid{Rows: 32, Cols: 32}, 100, 100); lut != nil {
		t.Fatal("expected nil LUT for 1024-tile grid")
	}
	if lut := FoVLUTFor(Grid{Rows: 0, Cols: 8}, 100, 100); lut != nil {
		t.Fatal("expected nil LUT for degenerate grid")
	}
}

func TestFoVLUTCacheSingleflightAndReset(t *testing.T) {
	ResetFoVLUTCache()
	g := Grid{Rows: 4, Cols: 8}
	a := FoVLUTFor(g, 100, 100)
	b := FoVLUTFor(g, 100, 100)
	if a != b {
		t.Fatal("same key built two LUTs")
	}
	if c := FoVLUTFor(g, 90, 90); c == a {
		t.Fatal("distinct FoV shared one LUT")
	}
	hits, misses, entries := FoVLUTCacheStats()
	if hits != 1 || misses != 2 || entries != 2 {
		t.Fatalf("stats = %d hits, %d misses, %d entries; want 1/2/2", hits, misses, entries)
	}
	ResetFoVLUTCache()
	if hits, misses, entries := FoVLUTCacheStats(); hits != 0 || misses != 0 || entries != 0 {
		t.Fatalf("post-reset stats = %d/%d/%d, want zeroes", hits, misses, entries)
	}
	if d := FoVLUTFor(g, 100, 100); d == a {
		t.Fatal("reset did not drop the cached LUT")
	}
}

// TestBoundingRectOfSetMatchesSlice checks the TileSet variant returns
// byte-identical rects to the slice variant over FoV-union shapes, the
// pattern buildPtile feeds it.
func TestBoundingRectOfSetMatchesSlice(t *testing.T) {
	g := Grid{Rows: 4, Cols: 8}
	centers := [][]Point{
		{{X: 10, Y: 90}},
		{{X: 350, Y: 90}, {X: 20, Y: 80}},                 // seam-straddling union
		{{X: 100, Y: 5}, {X: 140, Y: 30}},                 // pole-clipped union
		{{X: 0, Y: 90}, {X: 120, Y: 90}, {X: 240, Y: 90}}, // wide arc
	}
	for _, cs := range centers {
		var tiles []TileID
		var set TileSet
		seen := make(map[TileID]bool)
		for _, c := range cs {
			for _, id := range g.FoVTiles(c, 100, 100) {
				set.Add(g.Index(id))
				if !seen[id] {
					seen[id] = true
					tiles = append(tiles, id)
				}
			}
		}
		want, errW := g.BoundingRect(tiles)
		got, errG := g.BoundingRectOfSet(set)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("error mismatch: %v vs %v", errW, errG)
		}
		if got != want {
			t.Fatalf("centers %v: BoundingRectOfSet %+v, BoundingRect %+v", cs, got, want)
		}
	}
	if _, err := g.BoundingRectOfSet(TileSet{}); err == nil {
		t.Fatal("empty set must error like the empty slice")
	}
}

// referenceNormalizeYaw and referenceWrapDeltaX are the pre-fast-path
// implementations; the fast paths must be bit-identical (including signed
// zeros and NaN) on every input.
func referenceNormalizeYaw(deg float64) float64 {
	m := math.Mod(deg, 360)
	if m < 0 {
		m += 360
	}
	return m
}

func referenceWrapDeltaX(x1, x2 float64) float64 {
	d := math.Mod(x2-x1, 360)
	if d > 180 {
		d -= 360
	}
	if d <= -180 {
		d += 360
	}
	return d
}

func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestNormalizeYawFastPathBitIdentical(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1e-300, -1e-300, 180, -180, 359.999999, -359.999999,
		360, -360, 361, -361, 719.9999999, 720, 720.0000001, -720, 1e6 + 0.125,
		-1e6 - 0.125, math.Nextafter(360, 0), math.Nextafter(360, 400),
		math.Nextafter(-360, 0), math.Nextafter(720, 0), math.NaN(),
		math.Inf(1), math.Inf(-1),
	}
	state := uint64(7)
	for i := 0; i < 200000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		cases = append(cases[:0], (float64(state>>11)/float64(1<<53)-0.5)*4000)
		got, want := NormalizeYaw(cases[0]), referenceNormalizeYaw(cases[0])
		if !sameFloatBits(got, want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("NormalizeYaw(%v) = %v (bits %x), reference %v (bits %x)",
				cases[0], got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, deg := range []float64{
		0, math.Copysign(0, -1), 1e-300, -1e-300, 180, -180, 359.999999, -359.999999,
		360, -360, 361, -361, 719.9999999, 720, 720.0000001, -720, 1e6 + 0.125,
		-1e6 - 0.125, math.Nextafter(360, 0), math.Nextafter(360, 400),
		math.Nextafter(-360, 0), math.Nextafter(720, 0), math.NaN(),
		math.Inf(1), math.Inf(-1),
	} {
		got, want := NormalizeYaw(deg), referenceNormalizeYaw(deg)
		if !sameFloatBits(got, want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("NormalizeYaw(%v) = %v (bits %x), reference %v (bits %x)",
				deg, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestWrapDeltaXFastPathBitIdentical(t *testing.T) {
	edge := []float64{
		0, math.Copysign(0, -1), 1e-300, 90, 180, 270, 359.999999, 360, 540, 720,
		-90, -180, -360, math.Nextafter(360, 0), math.NaN(), math.Inf(1),
	}
	for _, x1 := range edge {
		for _, x2 := range edge {
			got, want := WrapDeltaX(x1, x2), referenceWrapDeltaX(x1, x2)
			if !sameFloatBits(got, want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("WrapDeltaX(%v, %v) = %v (bits %x), reference %v (bits %x)",
					x1, x2, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	state := uint64(11)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := 0; i < 200000; i++ {
		x1, x2 := next()*360, next()*360
		if i%3 == 0 {
			x1 = (next() - 0.5) * 2000
			x2 = (next() - 0.5) * 2000
		}
		got, want := WrapDeltaX(x1, x2), referenceWrapDeltaX(x1, x2)
		if !sameFloatBits(got, want) {
			t.Fatalf("WrapDeltaX(%v, %v) = %v (bits %x), reference %v (bits %x)",
				x1, x2, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestFoVLUTLookupsAllocationFree pins the hot-loop guarantee: once the
// LUT is built, a coverage lookup (mask fetch, popcount, tile slice)
// allocates nothing.
func TestFoVLUTLookupsAllocationFree(t *testing.T) {
	g, err := NewGrid(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	lut := FoVLUTFor(g, 100, 100)
	if lut == nil {
		t.Fatal("grid does not support the FoV LUT")
	}
	p := Point{X: 123.4, Y: 77.8}
	var count int
	if n := testing.AllocsPerRun(100, func() {
		s := lut.SetAt(p)
		count += s.Count()
		count += len(lut.TilesAt(p))
	}); n != 0 {
		t.Fatalf("lookup allocated %g times per run", n)
	}
	if count == 0 {
		t.Fatal("lookups returned no tiles")
	}
}
