package ptile360

// Clustering benches: BenchmarkDBSCANNaive vs BenchmarkDBSCANGrid time one
// full DBSCAN pass over a 10k-point viewport window — the naive O(n²)
// neighbor build against the spherical-grid index (O(n·k), bit-identical
// output, pinned by the cluster package's differential fuzz target).
// BenchmarkStreamWindow measures the online pipeline's steady state: one
// viewport report into a reservoir-capped sliding window plus the amortized
// re-cluster every windowful.
//
// Run via:
//
//	go test -run '^$' -bench '^Benchmark(DBSCAN|StreamWindow)' -benchtime 3x -benchmem .

import (
	"runtime/debug"
	"testing"

	"ptile360/internal/cluster"
	"ptile360/internal/geom"
	"ptile360/internal/stats"
)

// clusterBenchEps is the neighbour radius the DBSCAN benches run at. It is
// deliberately smaller than the hot-spot spread below (σ ≈ 12°): that is the
// regime a spatial index exists for — each point's eps-ball holds O(100) of
// the 10k points, so the naive pass wastes 99% of its n² distance checks on
// far-away pairs while the grid scans only the 3×3 surrounding cells. (At
// radii larger than the hot-spot spread, every hot-spot point's
// neighbourhood is its entire blob and neighbour-list output itself is the
// bottleneck — no index helps there.)
const clusterBenchEps = 10

// viewportWindow synthesizes n viewing centers the way a fleet-scale
// window looks: a dozen attention hot-spots spread over the panorama (one
// straddling the yaw seam) holding half the viewers, plus a uniform
// exploration floor for the other half.
func viewportWindow(n int, seed int64) []geom.Point {
	rng := stats.NewRNG(seed)
	hotspots := []geom.Point{
		{X: 20, Y: 70}, {X: 55, Y: 100}, {X: 90, Y: 80}, {X: 120, Y: 60},
		{X: 160, Y: 95}, {X: 200, Y: 85}, {X: 230, Y: 110}, {X: 260, Y: 75},
		{X: 290, Y: 90}, {X: 320, Y: 65}, {X: 340, Y: 105},
		{X: 355, Y: 88}, // straddles the 0/360 seam
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		if rng.Float64() < 0.5 {
			h := hotspots[rng.Intn(len(hotspots))]
			pts[i] = geom.Point{
				X: geom.NormalizeYaw(h.X + rng.Normal(0, 12)),
				Y: clampPitch(h.Y + rng.Normal(0, 8)),
			}
		} else {
			pts[i] = geom.Point{X: rng.Uniform(0, 360), Y: rng.Uniform(0, 180)}
		}
	}
	return pts
}

func clampPitch(y float64) float64 {
	if y < 0 {
		return 0
	}
	if y > 180 {
		return 180
	}
	return y
}

func benchmarkDBSCAN(b *testing.B, n int, f func([]geom.Point, float64, int) ([]cluster.Cluster, []int, error)) {
	pts := viewportWindow(n, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusters, _, err := f(pts, clusterBenchEps, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(clusters) == 0 {
			b.Fatal("no clusters on a hot-spot window")
		}
	}
}

func BenchmarkDBSCANNaive10k(b *testing.B) { benchmarkDBSCAN(b, 10_000, cluster.DBSCAN) }
func BenchmarkDBSCANGrid10k(b *testing.B)  { benchmarkDBSCAN(b, 10_000, cluster.DBSCANGrid) }

// TestDBSCANAllocs holds the DBSCAN benches' allocations per pass at the
// count measured when each ceiling was set, so one extra allocation per
// pass fails. The naive O(n²) pass runs on a 2k-point window to keep the
// suite fast. The collector is off while counting: a GC cycle adds runtime
// allocations of its own.
func TestDBSCANAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cases := []struct {
		name    string
		n       int
		dbscan  func([]geom.Point, float64, int) ([]cluster.Cluster, []int, error)
		ceiling float64
	}{
		{"Grid10k", 10_000, cluster.DBSCANGrid, 98},
		{"Naive2k", 2_000, cluster.DBSCAN, 10_258},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := viewportWindow(tc.n, 42)
			allocs := testing.AllocsPerRun(1, func() {
				if _, _, err := tc.dbscan(pts, clusterBenchEps, 4); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v allocs/pass", allocs)
			if allocs > tc.ceiling {
				t.Fatalf("%v allocs/pass exceeds the ceiling %v", allocs, tc.ceiling)
			}
		})
	}
}

// BenchmarkStreamWindow is the per-report cost of the online stage: every
// iteration ingests one viewport report; once per windowful the dirty
// segment is re-clustered, so the reported cost amortizes reservoir
// maintenance and grid DBSCAN exactly as the live pipeline pays them.
func BenchmarkStreamWindow(b *testing.B) {
	const windowCap = 512
	pts := viewportWindow(windowCap*4, 43)
	s, err := cluster.NewStream(cluster.StreamConfig{
		Eps:       clusterBenchEps,
		MinPts:    4,
		WindowCap: windowCap,
		Seed:      42,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	reclusters := 0
	for i := 0; i < b.N; i++ {
		s.Add(0, pts[i%len(pts)])
		if i%windowCap == windowCap-1 {
			if _, _, ok := s.Cluster(0); !ok {
				b.Fatal("re-cluster failed")
			}
			reclusters++
		}
	}
	b.StopTimer()
	if b.N >= windowCap && reclusters == 0 {
		b.Fatal("benchmark never re-clustered")
	}
	b.ReportMetric(float64(reclusters), "reclusters")
}
