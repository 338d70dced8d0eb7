package geom

import "math/bits"

// MaxTileSetTiles is the largest tile count (Grid.NumTiles) a TileSet can
// represent, and so the largest grid Grid.Validate accepts. The paper's 4×8
// grid needs one word.
const MaxTileSetTiles = 256

const tileSetWords = MaxTileSetTiles / 64

// TileSet is a fixed-size bitset over a grid's linear tile indices
// (Grid.Index). It replaces map[TileID]bool in the coverage hot paths:
// union is a handful of word-ORs, coverage counting is popcounts, and the
// zero value is the empty set — no allocation anywhere.
//
// A TileSet is only meaningful relative to the grid whose Index assignment
// produced the bits; mixing grids silently yields garbage.
type TileSet struct {
	w [tileSetWords]uint64
}

// Add inserts linear tile index i.
func (s *TileSet) Add(i int) { s.w[i>>6] |= 1 << (uint(i) & 63) }

// Contains reports whether linear tile index i is in the set.
func (s *TileSet) Contains(i int) bool { return s.w[i>>6]&(1<<(uint(i)&63)) != 0 }

// Union adds every member of t to s.
func (s *TileSet) Union(t TileSet) {
	for k := range s.w {
		s.w[k] |= t.w[k]
	}
}

// Count returns the number of members.
func (s *TileSet) Count() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no members.
func (s *TileSet) IsEmpty() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// ContainsAll reports whether t ⊆ s.
func (s *TileSet) ContainsAll(t TileSet) bool {
	for k := range s.w {
		if t.w[k]&^s.w[k] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one member.
func (s *TileSet) Intersects(t TileSet) bool {
	for k := range s.w {
		if s.w[k]&t.w[k] != 0 {
			return true
		}
	}
	return false
}

// CountIn returns |s ∩ t| without materializing the intersection.
func (s *TileSet) CountIn(t TileSet) int {
	n := 0
	for k := range s.w {
		n += bits.OnesCount64(s.w[k] & t.w[k])
	}
	return n
}

// ForEach calls fn for every member in ascending index order.
func (s *TileSet) ForEach(fn func(i int)) {
	for k, w := range s.w {
		for w != 0 {
			fn(k*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// TileOfIndex is the inverse of Index: the TileID at linear index i.
func (g Grid) TileOfIndex(i int) TileID { return TileID{Row: i / g.Cols, Col: i % g.Cols} }

// RectCoverSet returns the set of tiles whose centers fall inside r, the
// exact set predicate the Ptile coverage tests use (Rect.Contains over
// TileRect centers). g must be valid (Grid.Validate).
func (g Grid) RectCoverSet(r Rect) TileSet {
	var s TileSet
	for row := 0; row < g.Rows; row++ {
		for col := 0; col < g.Cols; col++ {
			id := TileID{Row: row, Col: col}
			if r.Contains(g.TileRect(id).Center()) {
				s.Add(g.Index(id))
			}
		}
	}
	return s
}
