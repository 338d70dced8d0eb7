// Package ptile constructs popularity tiles (Ptiles) from clustered viewing
// centers (paper Section IV-A) and the low-quality background blocks
// downloaded alongside them, and computes the coverage metrics of Fig. 7.
//
// A Ptile is the grid-aligned bounding rectangle of the FoV tile blocks of
// every user in one cluster, encoded as a single independently decodable
// tile. Clusters smaller than MinUsers do not earn a Ptile (the paper
// requires at least five users, i.e. 10 % of the training population).
package ptile

import (
	"fmt"

	"ptile360/internal/cluster"
	"ptile360/internal/geom"
)

// Config controls Ptile construction.
type Config struct {
	// Grid is the conventional tile grid the Ptile is assembled from.
	Grid geom.Grid
	// FoVDeg is the device field of view in degrees (horizontal = vertical,
	// 100° in the paper).
	FoVDeg float64
	// MinUsers is the minimum cluster size that earns a Ptile (5 in the
	// paper, i.e. roughly 10 % of the users in the dataset).
	MinUsers int
	// Params are the Algorithm 1 clustering parameters.
	Params cluster.Params
}

// DefaultConfig returns the paper's evaluation setting: 4×8 grid, 100° FoV,
// Ptiles require five users, σ = tile width, δ = σ/4.
func DefaultConfig() (Config, error) {
	grid, err := geom.NewGrid(4, 8)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Grid:     grid,
		FoVDeg:   100,
		MinUsers: 5,
		Params:   cluster.DefaultParams(),
	}, nil
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if c.FoVDeg <= 0 || c.FoVDeg > 180 {
		return fmt.Errorf("ptile: FoV %g outside (0, 180]", c.FoVDeg)
	}
	if c.MinUsers < 1 {
		return fmt.Errorf("ptile: MinUsers %d below 1", c.MinUsers)
	}
	return c.Params.Validate()
}

// Ptile is one constructed popularity tile.
type Ptile struct {
	// Rect is the panorama area the Ptile covers (grid-aligned).
	Rect geom.Rect
	// Users holds the indices (into the clustering input) of the covered
	// training users.
	Users []int
}

// Covers reports whether the viewer's snapped FoV tile block lies entirely
// within the Ptile, i.e. whether downloading this Ptile serves the viewer.
// An invalid grid (geom.Grid.Validate) covers nothing.
func (p Ptile) Covers(g geom.Grid, center geom.Point, fovDeg float64) bool {
	lut := geom.FoVLUTFor(g, fovDeg, fovDeg)
	if lut == nil {
		return false
	}
	for _, id := range lut.TilesAt(center) {
		if !rectContainsTile(p.Rect, g, id) {
			return false
		}
	}
	return true
}

func rectContainsTile(r geom.Rect, g geom.Grid, id geom.TileID) bool {
	return r.Contains(g.TileRect(id).Center())
}

// SegmentResult is the construction outcome for one video segment.
type SegmentResult struct {
	// Ptiles are the constructed popularity tiles, largest cluster first.
	Ptiles []Ptile
	// CoveredUsers is the number of training users whose cluster earned a
	// Ptile.
	CoveredUsers int
	// TotalUsers is the number of training viewing centers clustered.
	TotalUsers int
}

// CoverageFraction returns CoveredUsers/TotalUsers (0 when empty).
func (r SegmentResult) CoverageFraction() float64 {
	if r.TotalUsers == 0 {
		return 0
	}
	return float64(r.CoveredUsers) / float64(r.TotalUsers)
}

// BuildSegment clusters the per-segment viewing centers with Algorithm 1 and
// constructs the Ptiles for one video segment.
func BuildSegment(centers []geom.Point, cfg Config) (SegmentResult, error) {
	if err := cfg.Validate(); err != nil {
		return SegmentResult{}, err
	}
	clusters, err := cluster.ViewingCenters(centers, cfg.Params)
	if err != nil {
		return SegmentResult{}, err
	}
	return BuildSegmentClusters(centers, clusters, cfg)
}

// BuildSegmentClusters constructs the Ptiles for one segment from an already
// computed clustering of the viewing centers (cluster member indices refer
// into centers). This is the hook the online pipeline uses: ptilelive
// clusters its sliding windows incrementally (cluster.Stream over the
// grid-indexed DBSCAN) and hands the result here, so the geometric Ptile
// construction is shared verbatim between the offline and online paths.
func BuildSegmentClusters(centers []geom.Point, clusters []cluster.Cluster, cfg Config) (SegmentResult, error) {
	if err := cfg.Validate(); err != nil {
		return SegmentResult{}, err
	}
	lut := geom.FoVLUTFor(cfg.Grid, cfg.FoVDeg, cfg.FoVDeg)
	res := SegmentResult{TotalUsers: len(centers)}
	for _, cl := range clusters {
		if len(cl.Members) < cfg.MinUsers {
			continue
		}
		pt, err := buildPtile(centers, cl.Members, cfg, lut)
		if err != nil {
			return SegmentResult{}, err
		}
		res.Ptiles = append(res.Ptiles, pt)
		res.CoveredUsers += len(cl.Members)
	}
	return res, nil
}

// buildPtile encodes the conventional tiles covering the cluster members'
// FoV blocks as one large tile: their union is a few word-ORs of the LUT's
// masks, and the bounding rect is computed from the union.
func buildPtile(centers []geom.Point, members []int, cfg Config, lut *geom.FoVLUT) (Ptile, error) {
	var union geom.TileSet
	for _, m := range members {
		union.Union(lut.SetAt(centers[m]))
	}
	rect, err := cfg.Grid.BoundingRectOfSet(union)
	if err != nil {
		return Ptile{}, fmt.Errorf("ptile: bounding cluster of %d users: %w", len(members), err)
	}
	users := make([]int, len(members))
	copy(users, members)
	return Ptile{Rect: rect, Users: users}, nil
}

// BackgroundBlocks partitions the panorama area outside the Ptile into at
// most four large blocks along the Ptile's upper and lower horizontal lines
// (Section IV-A): a full-width strip above, a full-width strip below, and
// left/right side blocks at the Ptile's vertical extent.
func BackgroundBlocks(p Ptile, g geom.Grid) []geom.Rect {
	var blocks []geom.Rect
	r := p.Rect
	if r.Y0 > 0 {
		blocks = append(blocks, geom.Rect{X0: 0, Y0: 0, W: 360, H: r.Y0})
	}
	if bottom := r.Y0 + r.H; bottom < 180 {
		blocks = append(blocks, geom.Rect{X0: 0, Y0: bottom, W: 360, H: 180 - bottom})
	}
	if r.W < 360 {
		// The remaining side band at the Ptile's rows, wrapping from the
		// Ptile's right edge around to its left edge.
		blocks = append(blocks, geom.Rect{
			X0: geom.NormalizeYaw(r.X0 + r.W),
			Y0: r.Y0,
			W:  360 - r.W,
			H:  r.H,
		})
	}
	return blocks
}
