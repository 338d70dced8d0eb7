// Package sim runs trace-driven 360° streaming sessions (paper Section V):
// it combines the head-movement traces, the encoder model, the Ptile
// catalogue, the LTE bandwidth trace, the viewport predictor, the ABR
// controllers, the power models and the QoE model into one client-side
// playback loop, and reports the energy and QoE accounting behind
// Figs. 9–11.
package sim

import (
	"fmt"
	"sync"

	"ptile360/internal/cluster"
	"ptile360/internal/geom"
	"ptile360/internal/headtrace"
	"ptile360/internal/parallel"
	"ptile360/internal/ptile"
	"ptile360/internal/video"
)

// FtileGroup is one variable-size tile of the Ftile baseline: a cluster of
// grid tiles encoded together.
type FtileGroup struct {
	// Tiles are the member grid tiles.
	Tiles []geom.TileID
	// AreaFrac is the group's share of the panorama area.
	AreaFrac float64
}

// Catalog is the server-side preparation for one video: per-segment content
// metadata, the Ptile catalogue built from the training users (Section
// IV-A), and the Ftile grouping (Section V-A).
type Catalog struct {
	// Video is the content profile.
	Video video.Profile
	// SegmentSec is the segment duration L.
	SegmentSec float64
	// Content holds per-segment SI/TI/jitter.
	Content []video.SegmentContent
	// Ptiles holds the constructed Ptiles per segment.
	Ptiles [][]ptile.Ptile
	// Ftiles holds the ten variable-size tile groups per segment.
	Ftiles [][]FtileGroup
	// Coverage holds the per-segment training-user coverage fraction
	// (Fig. 7b).
	Coverage []float64

	// planMu guards plans, the lazily built per-configuration encoded-size
	// tables shared by every session streaming this catalogue (see
	// precompute.go), and grids, the outcome of checking the Ftile tiles
	// against each grid the catalogue has been priced on. Zero-valued on a
	// fresh catalogue.
	planMu sync.Mutex
	plans  map[planKey]*planEntry
	grids  map[geom.Grid]error
}

// CatalogConfig tunes catalogue construction.
type CatalogConfig struct {
	// Encoder is the encoder model (content series generation).
	Encoder video.EncoderConfig
	// Ptile is the Ptile construction setting.
	Ptile ptile.Config
	// SegmentSec is the segment duration L.
	SegmentSec float64
	// FtileCount is the number of variable-size tiles (10 in the paper).
	FtileCount int
	// Seed drives the deterministic content series and k-means seeding.
	Seed int64
	// Workers bounds the per-segment construction pool (0 = GOMAXPROCS,
	// 1 = serial). The catalogue is bit-identical for any setting: every
	// segment is an independent, seeded computation written to its own slot.
	Workers int
}

// DefaultCatalogConfig returns the paper's evaluation setting.
func DefaultCatalogConfig() (CatalogConfig, error) {
	pcfg, err := ptile.DefaultConfig()
	if err != nil {
		return CatalogConfig{}, err
	}
	return CatalogConfig{
		Encoder:    video.DefaultEncoderConfig(),
		Ptile:      pcfg,
		SegmentSec: 1,
		FtileCount: 10,
		Seed:       1,
	}, nil
}

// BuildCatalog prepares the server-side catalogue for one video from the
// training users' traces.
func BuildCatalog(p video.Profile, train []*headtrace.Trace, cfg CatalogConfig) (*Catalog, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("sim: no training traces")
	}
	if cfg.SegmentSec <= 0 {
		return nil, fmt.Errorf("sim: non-positive segment duration %g", cfg.SegmentSec)
	}
	if cfg.FtileCount <= 0 {
		return nil, fmt.Errorf("sim: non-positive Ftile count %d", cfg.FtileCount)
	}
	if err := cfg.Encoder.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Ptile.Validate(); err != nil {
		return nil, err
	}
	nSeg := p.Segments(cfg.SegmentSec)
	if nSeg == 0 {
		return nil, fmt.Errorf("sim: video %d shorter than one segment", p.ID)
	}
	content, err := p.ContentSeries(nSeg, cfg.Seed, cfg.Encoder)
	if err != nil {
		return nil, err
	}
	cat := &Catalog{
		Video:      p,
		SegmentSec: cfg.SegmentSec,
		Content:    content,
		Ptiles:     make([][]ptile.Ptile, nSeg),
		Ftiles:     make([][]FtileGroup, nSeg),
		Coverage:   make([]float64, nSeg),
	}
	// Segments are independent (per-segment k-means seeding, read-only
	// traces), so they build on a bounded worker pool, each writing only its
	// own slots — the result is bit-identical to the serial loop.
	if err := parallel.ForEach(nSeg, cfg.Workers, func(seg int) error {
		centers := make([]geom.Point, 0, len(train))
		for _, tr := range train {
			pt, err := tr.ViewingCenter(seg, cfg.SegmentSec)
			if err != nil {
				return fmt.Errorf("sim: user %d segment %d: %w", tr.UserID, seg, err)
			}
			centers = append(centers, pt)
		}
		res, err := ptile.BuildSegment(centers, cfg.Ptile)
		if err != nil {
			return fmt.Errorf("sim: Ptile construction segment %d: %w", seg, err)
		}
		cat.Ptiles[seg] = res.Ptiles
		cat.Coverage[seg] = res.CoverageFraction()

		groups, err := buildFtileGroups(centers, cfg.Ptile.Grid, cfg.FtileCount, cfg.Seed+int64(seg))
		if err != nil {
			return fmt.Errorf("sim: Ftile grouping segment %d: %w", seg, err)
		}
		cat.Ftiles[seg] = groups
		return nil
	}); err != nil {
		return nil, err
	}
	return cat, nil
}

// Video is one video prepared for streaming: its viewers split into
// training and evaluation users, and the catalogue built from the training
// users. Every field is read-only once prepared.
type Video struct {
	// Profile is the video.
	Profile video.Profile
	// Train are the viewers whose viewing centers built the Ptiles; Eval
	// are the held-out viewers that stream.
	Train, Eval []*headtrace.Trace
	// Catalog is the server-side preparation (content series, Ptiles,
	// Ftile groups).
	Catalog *Catalog
}

// PrepareVideo prepares ds's video as the evaluation does (Section V-A): it
// splits the viewers into nTrain training users and the held-out rest at
// seed+1, and builds the catalogue from the training users (Section IV-A)
// with DefaultCatalogConfig at seed, on up to workers goroutines (0 =
// GOMAXPROCS; the catalogue is the same for any count). The traces are
// generated at seed by convention, so one seed reproduces the whole video.
func PrepareVideo(ds *headtrace.Dataset, nTrain int, seed int64, workers int) (*Video, error) {
	if ds == nil {
		return nil, fmt.Errorf("sim: nil dataset")
	}
	train, eval, err := ds.SplitTrainEval(nTrain, seed+1)
	if err != nil {
		return nil, err
	}
	cfg, err := DefaultCatalogConfig()
	if err != nil {
		return nil, err
	}
	cfg.Seed, cfg.Workers = seed, workers
	cat, err := BuildCatalog(ds.Video, train, cfg)
	if err != nil {
		return nil, err
	}
	return &Video{Profile: ds.Video, Train: train, Eval: eval, Catalog: cat}, nil
}

// buildFtileGroups clusters the training viewing centers into k groups and
// assigns every grid tile to the nearest group centroid, yielding the
// variable-size tiling of the Ftile baseline.
func buildFtileGroups(centers []geom.Point, grid geom.Grid, k int, seed int64) ([]FtileGroup, error) {
	clusters, err := cluster.KMeans(centers, k, seed)
	if err != nil {
		return nil, err
	}
	if len(clusters) == 0 {
		// No viewers at all: a single group covering everything.
		all := make([]geom.TileID, 0, grid.NumTiles())
		for r := 0; r < grid.Rows; r++ {
			for c := 0; c < grid.Cols; c++ {
				all = append(all, geom.TileID{Row: r, Col: c})
			}
		}
		return []FtileGroup{{Tiles: all, AreaFrac: 1}}, nil
	}
	centroids := make([]geom.Point, len(clusters))
	for i, cl := range clusters {
		centroids[i] = centroidOf(centers, cl.Members)
	}
	groups := make([]FtileGroup, len(clusters))
	tileArea := 1.0 / float64(grid.NumTiles())
	for r := 0; r < grid.Rows; r++ {
		for c := 0; c < grid.Cols; c++ {
			id := geom.TileID{Row: r, Col: c}
			center := grid.TileRect(id).Center()
			best, bestD := 0, geom.Dist(center, centroids[0])
			for j := 1; j < len(centroids); j++ {
				if d := geom.Dist(center, centroids[j]); d < bestD {
					best, bestD = j, d
				}
			}
			groups[best].Tiles = append(groups[best].Tiles, id)
			groups[best].AreaFrac += tileArea
		}
	}
	// Drop empty groups (clusters whose centroid attracted no tiles).
	out := groups[:0]
	for _, g := range groups {
		if len(g.Tiles) > 0 {
			out = append(out, g)
		}
	}
	return out, nil
}

func centroidOf(points []geom.Point, members []int) geom.Point {
	if len(members) == 0 {
		return geom.Point{}
	}
	anchor := points[members[0]]
	var sx, sy float64
	for _, m := range members {
		sx += anchor.X + geom.WrapDeltaX(anchor.X, points[m].X)
		sy += points[m].Y
	}
	n := float64(len(members))
	return geom.Point{X: geom.NormalizeYaw(sx / n), Y: sy / n}
}
