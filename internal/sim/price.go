package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ptile360/internal/geom"
	"ptile360/internal/ptile"
	"ptile360/internal/video"
)

// maxCenterDeg bounds a priced viewport center: a coordinate beyond ±1e6°
// (NaN and infinities included) is not a viewing direction.
const maxCenterDeg = 1e6

// Pricer is the size model of one catalogue under one session
// configuration: the encoded size of every version a Ptile session is
// offered, read from the catalogue's plan tables (or, on the reference
// path, computed with the encoder calls they memoize). The planner prices
// its options with it and the HTTP server its bodies, so the bits Eq. 1
// charges are the bits on the wire. It is read-only and safe for
// concurrent use.
type Pricer struct {
	cfg Config
	cat *Catalog
	tab *planTables
	lut *geom.FoVLUT
	fm  float64
}

// NewPricer prices cat under cfg at the catalogue's own segment duration
// (cfg.SegmentSec is replaced by cat.SegmentSec), resolving the plan tables
// once and building them on first use. Every Ftile tile of cat must lie on
// cfg.Grid; the check, too, runs once per catalogue and grid.
func NewPricer(cat *Catalog, cfg Config) (*Pricer, error) {
	if cat == nil || len(cat.Content) == 0 {
		return nil, fmt.Errorf("sim: empty catalogue")
	}
	cfg.SegmentSec = cat.SegmentSec
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cat.checkGrid(cfg.Grid); err != nil {
		return nil, err
	}
	p := &Pricer{cfg: cfg, cat: cat, fm: cfg.Encoder.FrameRate, lut: geom.FoVLUTFor(cfg.Grid, cfg.FoVDeg, cfg.FoVDeg)}
	// Without tables (determinism tests) every size and coverage mask is
	// computed directly: the bit-identical serial reference path.
	if !disablePlanTables {
		var err error
		if p.tab, err = cat.tablesFor(&p.cfg); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// checkGrid reports an Ftile tile of the catalogue off grid g. It walks the
// tiles once per grid: every session that streams the catalogue prices it
// on the same grid, so later calls read the memo.
func (c *Catalog) checkGrid(g geom.Grid) error {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if err, ok := c.grids[g]; ok {
		return err
	}
	err := c.offGrid(g)
	if c.grids == nil {
		c.grids = make(map[geom.Grid]error)
	}
	c.grids[g] = err
	return err
}

// offGrid walks every Ftile tile and reports the first off grid g.
func (c *Catalog) offGrid(g geom.Grid) error {
	for k, groups := range c.Ftiles {
		for _, grp := range groups {
			for _, id := range grp.Tiles {
				if id.Row < 0 || id.Row >= g.Rows || id.Col < 0 || id.Col >= g.Cols {
					return fmt.Errorf("sim: segment %d Ftile tile %+v off the %dx%d grid", k, id, g.Rows, g.Cols)
				}
			}
		}
	}
	return nil
}

// Catalog returns the priced catalogue.
func (p *Pricer) Catalog() *Catalog { return p.cat }

// Bits prices one version of segment k, addressed as a Fetch addresses it:
// Ptile pi of the catalogue's Ptiles[k] at quality v and frame rate f plus
// its background blocks, or, with pi = -1, the conventional tiles (the FoV
// block around center at quality v, the rest of the grid at the lowest
// quality). f = 0 means the source rate; a Ptile's f must be on the
// configured ladder and a conventional version's the source rate. The
// result is the SizeBits the planner gives the same version.
func (p *Pricer) Bits(k int, v video.Quality, f float64, pi int, center geom.Point) (float64, error) {
	if k < 0 || k >= len(p.cat.Content) {
		return 0, fmt.Errorf("sim: segment %d outside [0, %d)", k, len(p.cat.Content))
	}
	if err := v.Validate(); err != nil {
		return 0, err
	}
	if f == 0 {
		f = p.fm
	}
	fi := slices.Index(p.cfg.FrameRates, f)
	switch {
	case pi == -1 && f != p.fm:
		return 0, fmt.Errorf("sim: conventional tiles come at the source rate %g, not %g", p.fm, f)
	case pi == -1 && !(math.Abs(center.X) <= maxCenterDeg && math.Abs(center.Y) <= maxCenterDeg):
		return 0, fmt.Errorf("sim: viewport center (%g, %g) outside ±%g°", center.X, center.Y, float64(maxCenterDeg))
	case pi == -1:
		fov := p.lut.SetAt(center)
		return p.ctileBits(k, v, fov.Count())
	case pi < 0 || pi >= len(p.cat.Ptiles[k]):
		return 0, fmt.Errorf("sim: segment %d has no Ptile %d", k, pi)
	case fi < 0:
		return 0, fmt.Errorf("sim: frame rate %g not on the ladder %v", f, p.cfg.FrameRates)
	}
	sizes, err := p.ptileSizes(k, pi)
	if err != nil {
		return 0, err
	}
	return sizes[int(v)-1][fi], nil
}

// ctileBits is a conventional version of segment k: nHQ FoV grid tiles at
// quality v and the rest of the grid at the lowest quality, all at the
// source rate.
func (p *Pricer) ctileBits(k int, v video.Quality, nHQ int) (float64, error) {
	hq, errHQ := p.gridTileBits(k, v)
	bg, errBG := p.gridTileBits(k, video.MinQuality)
	return float64(nHQ)*hq + float64(p.cfg.Grid.NumTiles()-nHQ)*bg, cmp.Or(errHQ, errBG)
}

// gridTileBits is one grid tile of segment k at quality v and the source
// rate.
func (p *Pricer) gridTileBits(k int, v video.Quality) (float64, error) {
	if p.tab != nil {
		return p.tab.gridTileBits[k][int(v)-1], nil
	}
	return p.cfg.Encoder.RegionBits(1/float64(p.cfg.Grid.NumTiles()), v, p.fm, video.KindGrid, p.cfg.SegmentSec, p.cat.Content[k])
}

// ptileSizes returns Ptile pi of segment k's version sizes: the table row,
// or, on the reference path, computed directly.
func (p *Pricer) ptileSizes(k, pi int) (*[numQualities][]float64, error) {
	if p.tab != nil {
		return &p.tab.ptiles[k][pi], nil
	}
	sizes, err := ptileVersionSizes(&p.cfg, &p.cat.Ptiles[k][pi], p.cat.Content[k])
	return &sizes, err
}

// ptileSet returns Ptile pi of segment k's rect-coverage mask, the tiles
// whose centers its rect contains: the table row, or, on the reference path,
// computed directly.
func (p *Pricer) ptileSet(k, pi int) geom.TileSet {
	if p.tab != nil {
		return p.tab.ptileSets[k][pi]
	}
	return p.cfg.Grid.RectCoverSet(p.cat.Ptiles[k][pi].Rect)
}

// ftileSet returns Ftile group gi of segment k's tile mask: the table row,
// or, on the reference path, computed directly.
func (p *Pricer) ftileSet(k, gi int) geom.TileSet {
	if p.tab != nil {
		return p.tab.ftileSets[k][gi]
	}
	return ftileMask(p.cfg.Grid, p.cat.Ftiles[k][gi])
}

// ftileMask is the mask of group g's tiles on grid.
func ftileMask(grid geom.Grid, g FtileGroup) geom.TileSet {
	var s geom.TileSet
	for _, id := range g.Tiles {
		s.Add(grid.Index(id))
	}
	return s
}

// ptileVersionSizes computes a Ptile's version sizes, sizes[v-1][fi] at
// quality v and frame rate cfg.FrameRates[fi]: the rect's own encode plus
// the background blocks at the lowest quality and the source rate, summed
// in BackgroundBlocks order.
func ptileVersionSizes(cfg *Config, pt *ptile.Ptile, sc video.SegmentContent) ([numQualities][]float64, error) {
	var sizes [numQualities][]float64
	var bg float64
	for _, block := range ptile.BackgroundBlocks(*pt, cfg.Grid) {
		bits, err := cfg.Encoder.TileBits(video.TileSpec{Rect: block, Quality: video.MinQuality, Kind: video.KindBlock}, cfg.SegmentSec, sc)
		if err != nil {
			return sizes, err
		}
		bg += bits
	}
	for v := video.MinQuality; v <= video.MaxQuality; v++ {
		sizes[int(v)-1] = make([]float64, len(cfg.FrameRates))
		for fi, f := range cfg.FrameRates {
			bits, err := cfg.Encoder.TileBits(video.TileSpec{Rect: pt.Rect, Quality: v, FrameRate: f, Kind: video.KindPtile}, cfg.SegmentSec, sc)
			if err != nil {
				return sizes, err
			}
			sizes[int(v)-1][fi] = bits + bg
		}
	}
	return sizes, nil
}
