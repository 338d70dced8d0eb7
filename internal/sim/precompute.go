package sim

import (
	"fmt"
	"sync"

	"ptile360/internal/geom"
	"ptile360/internal/video"
	"ptile360/internal/vmaf"
)

// This file holds the catalogue's precomputed planning tables: the
// planner's hot loop (segmentPlan and the MPC horizon) used to re-derive the
// same EncoderConfig.TileBits/RegionBits values — including a math.Pow per
// call — and the same Eq. 3 Q₀ — a math.Exp per call — for every user,
// every scheme, and H times per segment through horizonPlans. Sizes depend
// only on (catalogue, encoder config, grid, segment duration, frame-rate
// ladder) and Q₀ only on (catalogue, encoder config, Eq. 3 coefficients),
// so they are computed once per catalogue per configuration fingerprint and
// shared by every session.
//
// Determinism: the tables memoize the exact outputs of the same pure
// function calls the direct path makes, and every consumer sums them in the
// same order, so planning with tables is bit-identical to planning without
// (TestSessionPlanTablesBitIdentical enforces this).

// numQualities is the size of the quality ladder (video.MinQuality..MaxQuality).
const numQualities = int(video.MaxQuality-video.MinQuality) + 1

// disablePlanTables forces sessions onto the direct per-call computation
// path — the serial reference the determinism tests compare the tables
// against. Toggled by tests only.
var disablePlanTables bool

// planKey fingerprints every session-config field the tables depend on.
// Frame rates are rendered to a string because slices are not comparable.
type planKey struct {
	enc        video.EncoderConfig
	grid       struct{ rows, cols int }
	segmentSec float64
	rates      string
	qoe        vmaf.Coefficients
}

func planKeyFor(cfg *Config) planKey {
	k := planKey{
		enc:        cfg.Encoder,
		segmentSec: cfg.SegmentSec,
		rates:      fmt.Sprint(cfg.FrameRates),
		qoe:        cfg.QoECoeffs,
	}
	k.grid.rows, k.grid.cols = cfg.Grid.Rows, cfg.Grid.Cols
	return k
}

// planTables carries the per-segment tables for one (catalogue, planKey)
// pair.
type planTables struct {
	// q0[k][v-1] is Eq. 3's Q₀ of segment k's content at quality v.
	q0 [][numQualities]float64
	// gridTileBits[k][v-1] is one conventional grid tile's size at quality v
	// and the source frame rate.
	gridTileBits [][numQualities]float64
	// panoramaBits[k][v-1] is the whole panorama's single-encode size.
	panoramaBits [][numQualities]float64
	// ftileBits[k][g][v-1] is Ftile group g's size at quality v.
	ftileBits [][][numQualities]float64
	// ptiles[k][i][v-1][fi] is Ptile i's version size at quality v and frame
	// rate FrameRates[fi]: its rect's encode plus its background blocks.
	ptiles [][][numQualities][]float64
	// ptileSets[k][i] is Ptile i's rect-coverage mask (tiles whose centers
	// the rect contains), so the covering-Ptile test is a subset check.
	ptileSets [][]geom.TileSet
	// ftileSets[k][g] is Ftile group g's tile mask.
	ftileSets [][]geom.TileSet
}

// planEntry is one singleflight cache slot: built under its own Once so
// concurrent sessions requesting the same key share one build.
type planEntry struct {
	once sync.Once
	tab  *planTables
	err  error
}

// tablesFor returns the catalogue's size tables for the given session
// configuration, building them at most once per distinct fingerprint.
func (c *Catalog) tablesFor(cfg *Config) (*planTables, error) {
	key := planKeyFor(cfg)
	c.planMu.Lock()
	if c.plans == nil {
		c.plans = make(map[planKey]*planEntry)
	}
	e, ok := c.plans[key]
	if !ok {
		e = &planEntry{}
		c.plans[key] = e
	}
	c.planMu.Unlock()

	e.once.Do(func() {
		e.tab, e.err = c.buildPlanTables(cfg)
	})
	return e.tab, e.err
}

// buildPlanTables computes every size and Q₀ the planners can request, with
// the same calls as the direct path.
func (c *Catalog) buildPlanTables(cfg *Config) (*planTables, error) {
	nSeg := len(c.Content)
	enc := cfg.Encoder
	fm := enc.FrameRate
	tileFrac := 1.0 / float64(cfg.Grid.NumTiles())
	t := &planTables{
		q0:           make([][numQualities]float64, nSeg),
		gridTileBits: make([][numQualities]float64, nSeg),
		panoramaBits: make([][numQualities]float64, nSeg),
		ftileBits:    make([][][numQualities]float64, nSeg),
		ptiles:       make([][][numQualities][]float64, nSeg),
		ptileSets:    make([][]geom.TileSet, nSeg),
		ftileSets:    make([][]geom.TileSet, nSeg),
	}
	for k := 0; k < nSeg; k++ {
		sc := c.Content[k]
		for v := video.MinQuality; v <= video.MaxQuality; v++ {
			gb, err := enc.RegionBits(tileFrac, v, fm, video.KindGrid, cfg.SegmentSec, sc)
			if err != nil {
				return nil, err
			}
			t.gridTileBits[k][int(v)-1] = gb
			pb, err := enc.RegionBits(1, v, fm, video.KindPanorama, cfg.SegmentSec, sc)
			if err != nil {
				return nil, err
			}
			t.panoramaBits[k][int(v)-1] = pb
			q0, err := directQ0(cfg, sc, v)
			if err != nil {
				return nil, err
			}
			t.q0[k][int(v)-1] = q0
		}

		groups := c.Ftiles[k]
		t.ftileBits[k] = make([][numQualities]float64, len(groups))
		t.ftileSets[k] = make([]geom.TileSet, len(groups))
		for gi, g := range groups {
			t.ftileSets[k][gi] = ftileMask(cfg.Grid, g)
			for v := video.MinQuality; v <= video.MaxQuality; v++ {
				fb, err := enc.RegionBits(g.AreaFrac, v, fm, video.KindFtile, cfg.SegmentSec, sc)
				if err != nil {
					return nil, err
				}
				t.ftileBits[k][gi][int(v)-1] = fb
			}
		}

		t.ptiles[k] = make([][numQualities][]float64, len(c.Ptiles[k]))
		t.ptileSets[k] = make([]geom.TileSet, len(c.Ptiles[k]))
		for pi := range c.Ptiles[k] {
			sizes, err := ptileVersionSizes(cfg, &c.Ptiles[k][pi], sc)
			if err != nil {
				return nil, err
			}
			t.ptiles[k][pi] = sizes
			t.ptileSets[k][pi] = cfg.Grid.RectCoverSet(c.Ptiles[k][pi].Rect)
		}
	}
	return t, nil
}
