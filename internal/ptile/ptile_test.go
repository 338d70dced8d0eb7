package ptile

import (
	"testing"

	"ptile360/internal/cluster"
	"ptile360/internal/geom"
	"ptile360/internal/stats"
)

func mustConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestDefaultConfig(t *testing.T) {
	cfg := mustConfig(t)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Grid.Rows != 4 || cfg.Grid.Cols != 8 || cfg.FoVDeg != 100 || cfg.MinUsers != 5 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

func TestConfigValidate(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Grid.Rows = 0 },
		func(c *Config) { c.Grid = geom.Grid{Rows: 12, Cols: 24} }, // 288 tiles
		func(c *Config) { c.FoVDeg = 0 },
		func(c *Config) { c.FoVDeg = 200 },
		func(c *Config) { c.MinUsers = 0 },
		func(c *Config) { c.Params = cluster.Params{} },
	}
	for i, mutate := range muts {
		cfg := mustConfig(t)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

// blob returns n viewing centers around (cx, cy).
func blob(rng *stats.RNG, n int, cx, cy, std float64) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Point{X: geom.NormalizeYaw(cx + rng.Normal(0, std)), Y: cy + rng.Normal(0, std)}
	}
	return out
}

func TestBuildSegmentSingleCluster(t *testing.T) {
	cfg := mustConfig(t)
	rng := stats.NewRNG(1)
	centers := blob(rng, 20, 180, 90, 4)
	res, err := BuildSegment(centers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ptiles) != 1 {
		t.Fatalf("ptiles = %d, want 1", len(res.Ptiles))
	}
	if res.CoveredUsers != 20 || res.TotalUsers != 20 {
		t.Fatalf("coverage %d/%d", res.CoveredUsers, res.TotalUsers)
	}
	if res.CoverageFraction() != 1 {
		t.Fatalf("coverage fraction = %g", res.CoverageFraction())
	}
	// Every member's FoV block must fit inside the Ptile.
	pt := res.Ptiles[0]
	for _, u := range pt.Users {
		if !pt.Covers(cfg.Grid, centers[u], cfg.FoVDeg) {
			t.Fatalf("user %d FoV not covered by its own Ptile", u)
		}
	}
	if err := pt.Rect.Validate(); err != nil {
		t.Fatalf("Ptile rect invalid: %v", err)
	}
}

func TestBuildSegmentMinUsers(t *testing.T) {
	cfg := mustConfig(t)
	rng := stats.NewRNG(2)
	// 20 users in one cluster, 3 stragglers far away: the stragglers form a
	// sub-threshold cluster and earn no Ptile.
	centers := append(blob(rng, 20, 90, 90, 4), blob(rng, 3, 300, 90, 2)...)
	res, err := BuildSegment(centers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ptiles) != 1 {
		t.Fatalf("ptiles = %d, want 1 (straggler cluster below MinUsers)", len(res.Ptiles))
	}
	if res.CoveredUsers != 20 {
		t.Fatalf("covered = %d, want 20", res.CoveredUsers)
	}
	if f := res.CoverageFraction(); f <= 0.85 || f >= 0.88 {
		t.Fatalf("coverage fraction = %g, want 20/23", f)
	}
}

func TestBuildSegmentTwoClusters(t *testing.T) {
	cfg := mustConfig(t)
	rng := stats.NewRNG(3)
	centers := append(blob(rng, 12, 60, 90, 4), blob(rng, 8, 250, 90, 4)...)
	res, err := BuildSegment(centers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ptiles) != 2 {
		t.Fatalf("ptiles = %d, want 2", len(res.Ptiles))
	}
	// Largest cluster first.
	if len(res.Ptiles[0].Users) < len(res.Ptiles[1].Users) {
		t.Fatal("ptiles not ordered by cluster size")
	}
}

func TestBuildSegmentEmpty(t *testing.T) {
	cfg := mustConfig(t)
	res, err := BuildSegment(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ptiles) != 0 || res.CoverageFraction() != 0 {
		t.Fatalf("empty result = %+v", res)
	}
}

func TestBuildSegmentBadConfig(t *testing.T) {
	cfg := mustConfig(t)
	cfg.MinUsers = 0
	if _, err := BuildSegment([]geom.Point{{X: 1, Y: 90}}, cfg); err == nil {
		t.Fatal("want config validation error")
	}
}

func TestPtileRectGridAligned(t *testing.T) {
	cfg := mustConfig(t)
	rng := stats.NewRNG(4)
	centers := blob(rng, 15, 123, 77, 5)
	res, err := BuildSegment(centers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Ptiles {
		w, h := cfg.Grid.TileW(), cfg.Grid.TileH()
		for name, v := range map[string]float64{
			"X0": pt.Rect.X0 / w, "Y0": pt.Rect.Y0 / h, "W": pt.Rect.W / w, "H": pt.Rect.H / h,
		} {
			if v != float64(int(v)) {
				t.Fatalf("Ptile %s = %g not grid-aligned", name, v)
			}
		}
	}
}

func TestCoversRejectsOutsideViewer(t *testing.T) {
	cfg := mustConfig(t)
	rng := stats.NewRNG(5)
	centers := blob(rng, 10, 90, 90, 3)
	res, err := BuildSegment(centers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Ptiles[0]
	if pt.Covers(cfg.Grid, geom.Point{X: 280, Y: 90}, cfg.FoVDeg) {
		t.Fatal("Ptile should not cover a viewer on the opposite side")
	}
	// An invalid grid has no FoV LUT, so nothing on it covers a viewer.
	whole := Ptile{Rect: geom.Rect{W: 360, H: 180}}
	if whole.Covers(geom.Grid{Rows: 12, Cols: 24}, geom.Point{X: 90, Y: 90}, cfg.FoVDeg) {
		t.Fatal("a Ptile on a 288-tile grid covers a viewer")
	}
}

func TestBackgroundBlocksPartition(t *testing.T) {
	cfg := mustConfig(t)
	pt := Ptile{Rect: geom.Rect{X0: 90, Y0: 45, W: 135, H: 90}}
	blocks := BackgroundBlocks(pt, cfg.Grid)
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d, want 3 (above, below, side)", len(blocks))
	}
	var area float64
	for i, b := range blocks {
		if err := b.Validate(); err != nil {
			t.Fatalf("block %d invalid: %v", i, err)
		}
		area += b.Area()
	}
	// Blocks plus Ptile must tile the panorama exactly.
	if total := area + pt.Rect.Area(); total != 360*180 {
		t.Fatalf("blocks+Ptile area = %g, want %g", total, 360.0*180)
	}
	// No block may overlap the Ptile.
	for i, b := range blocks {
		if b.Contains(pt.Rect.Center()) {
			t.Fatalf("block %d overlaps the Ptile", i)
		}
	}
}

func TestBackgroundBlocksFullHeightPtile(t *testing.T) {
	cfg := mustConfig(t)
	pt := Ptile{Rect: geom.Rect{X0: 0, Y0: 0, W: 135, H: 180}}
	blocks := BackgroundBlocks(pt, cfg.Grid)
	if len(blocks) != 1 {
		t.Fatalf("blocks = %d, want 1 (side only)", len(blocks))
	}
	if blocks[0].W != 225 || blocks[0].H != 180 {
		t.Fatalf("side block = %+v", blocks[0])
	}
}

func TestBackgroundBlocksFullPanorama(t *testing.T) {
	cfg := mustConfig(t)
	pt := Ptile{Rect: geom.Rect{X0: 0, Y0: 0, W: 360, H: 180}}
	if blocks := BackgroundBlocks(pt, cfg.Grid); len(blocks) != 0 {
		t.Fatalf("full-panorama Ptile should have no background, got %d", len(blocks))
	}
}

// Property: BuildSegment never loses users and never covers more users than
// exist; all Ptile rects are valid.
func TestBuildSegmentInvariants(t *testing.T) {
	cfg := mustConfig(t)
	for seed := int64(0); seed < 30; seed++ {
		rng := stats.NewRNG(seed)
		n := 5 + rng.Intn(40)
		centers := make([]geom.Point, n)
		for i := range centers {
			centers[i] = geom.Point{X: rng.Uniform(0, 360), Y: rng.Uniform(30, 150)}
		}
		res, err := BuildSegment(centers, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalUsers != n || res.CoveredUsers > n || res.CoveredUsers < 0 {
			t.Fatalf("seed %d: counts %d/%d", seed, res.CoveredUsers, res.TotalUsers)
		}
		var sum int
		for _, pt := range res.Ptiles {
			sum += len(pt.Users)
			if len(pt.Users) < cfg.MinUsers {
				t.Fatalf("seed %d: Ptile with %d users below threshold", seed, len(pt.Users))
			}
			if err := pt.Rect.Validate(); err != nil {
				t.Fatalf("seed %d: invalid Ptile rect: %v", seed, err)
			}
		}
		if sum != res.CoveredUsers {
			t.Fatalf("seed %d: covered mismatch %d vs %d", seed, sum, res.CoveredUsers)
		}
	}
}
