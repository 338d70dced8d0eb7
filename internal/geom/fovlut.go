package geom

import "sync"

// FoVLUT is a precomputed FoV→coverage table for one (grid, hFoV, vFoV)
// combination. Grid.FoVTiles depends on the viewing center only through
// Grid.TileAt(center), so one entry per center tile — Rows×Cols entries of
// (ordered tile slice, bit mask) — reproduces the sampling path exactly: the
// quantization step IS the quantization FoVTiles already applies. Per-frame
// coverage then costs one TileAt, one table load, and a few word ops.
//
// LUTs are shared process-wide through FoVLUTFor's singleflight cache; the
// tile slices are therefore shared read-only data that callers must never
// mutate.
type FoVLUT struct {
	grid       Grid
	hFoV, vFoV float64
	tiles      [][]TileID
	sets       []TileSet
}

// Grid returns the grid the table was built for.
func (l *FoVLUT) Grid() Grid { return l.grid }

// TilesAt returns the FoV tile block for a viewer at center, in exactly
// Grid.FoVTiles order. The returned slice is shared — do not mutate.
func (l *FoVLUT) TilesAt(center Point) []TileID {
	return l.tiles[l.grid.Index(l.grid.TileAt(center))]
}

// SetAt returns the FoV coverage mask for a viewer at center.
func (l *FoVLUT) SetAt(center Point) TileSet {
	return l.sets[l.grid.Index(l.grid.TileAt(center))]
}

type fovLUTKey struct {
	rows, cols int
	hFoV, vFoV float64
}

type fovLUTEntry struct {
	once sync.Once
	lut  *FoVLUT
}

// fovLUTCache memoizes LUT construction per (grid, FoV) with the same
// singleflight shape as the sim plan tables: entry lookup under the lock,
// construction under the entry's once, so concurrent sessions share one
// build. maxFoVLUTEntries bounds a pathological sweep over many FoVs.
var fovLUTCache = struct {
	mu           sync.Mutex
	entries      map[fovLUTKey]*fovLUTEntry
	hits, misses int
}{entries: make(map[fovLUTKey]*fovLUTEntry)}

const maxFoVLUTEntries = 64

// FoVLUTFor returns the shared coverage LUT for (g, hFoV, vFoV), building it
// on first use. An invalid grid (Grid.Validate) returns nil.
func FoVLUTFor(g Grid, hFoV, vFoV float64) *FoVLUT {
	if g.Validate() != nil {
		return nil
	}
	key := fovLUTKey{rows: g.Rows, cols: g.Cols, hFoV: hFoV, vFoV: vFoV}
	fovLUTCache.mu.Lock()
	e, ok := fovLUTCache.entries[key]
	if ok {
		fovLUTCache.hits++
	} else {
		fovLUTCache.misses++
		if len(fovLUTCache.entries) >= maxFoVLUTEntries {
			fovLUTCache.entries = make(map[fovLUTKey]*fovLUTEntry)
		}
		e = &fovLUTEntry{}
		fovLUTCache.entries[key] = e
	}
	fovLUTCache.mu.Unlock()
	e.once.Do(func() {
		n := g.NumTiles()
		l := &FoVLUT{
			grid:  g,
			hFoV:  hFoV,
			vFoV:  vFoV,
			tiles: make([][]TileID, n),
			sets:  make([]TileSet, n),
		}
		for i := 0; i < n; i++ {
			ids := g.fovTilesFromTile(g.TileOfIndex(i), hFoV, vFoV)
			l.tiles[i] = ids
			for _, id := range ids {
				l.sets[i].Add(g.Index(id))
			}
		}
		e.lut = l
	})
	return e.lut
}

// ResetFoVLUTCache drops every cached LUT and zeroes the hit/miss counters.
// Long-lived servers and cache-accounting tests use it via
// experiments.ResetCaches.
func ResetFoVLUTCache() {
	fovLUTCache.mu.Lock()
	defer fovLUTCache.mu.Unlock()
	fovLUTCache.entries = make(map[fovLUTKey]*fovLUTEntry)
	fovLUTCache.hits, fovLUTCache.misses = 0, 0
}

// FoVLUTCacheStats reports cumulative cache hits and misses and the current
// entry count.
func FoVLUTCacheStats() (hits, misses, entries int) {
	fovLUTCache.mu.Lock()
	defer fovLUTCache.mu.Unlock()
	return fovLUTCache.hits, fovLUTCache.misses, len(fovLUTCache.entries)
}
