package experiments

import (
	"fmt"
	"slices"
	"sort"

	"ptile360/internal/cluster"
	"ptile360/internal/geom"
	"ptile360/internal/headtrace"
	"ptile360/internal/ptile"
	"ptile360/internal/stats"
	"ptile360/internal/video"
)

// Fig4aResult is the SI/TI characterization of the test videos.
type Fig4aResult struct {
	// PerVideo maps video ID → (SI mean, TI mean, SI std, TI std) over its
	// segments.
	PerVideo map[int][4]float64
}

// Fig4a computes per-video SI/TI statistics over the deterministic content
// series (the Fig. 4a scatter).
func Fig4a(scale Scale) (*Fig4aResult, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	enc := video.DefaultEncoderConfig()
	res := &Fig4aResult{PerVideo: make(map[int][4]float64)}
	for _, id := range scale.Videos {
		p, err := video.ProfileByID(id)
		if err != nil {
			return nil, err
		}
		series, err := p.ContentSeries(p.Segments(1), scale.Seed, enc)
		if err != nil {
			return nil, err
		}
		sis := make([]float64, len(series))
		tis := make([]float64, len(series))
		for i, s := range series {
			sis[i], tis[i] = s.SI, s.TI
		}
		res.PerVideo[id] = [4]float64{stats.Mean(sis), stats.Mean(tis), stats.StdDev(sis), stats.StdDev(tis)}
	}
	return res, nil
}

// Render formats the Fig. 4a statistics.
func (r *Fig4aResult) Render() Table {
	t := Table{
		Title:   "Fig. 4a: spatial and temporal information of the videos",
		Columns: []string{"Video", "SI mean", "SI std", "TI mean", "TI std"},
	}
	ids := make([]int, 0, len(r.PerVideo))
	for id := range r.PerVideo {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		v := r.PerVideo[id]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", id),
			fmt.Sprintf("%.1f", v[0]), fmt.Sprintf("%.1f", v[2]),
			fmt.Sprintf("%.1f", v[1]), fmt.Sprintf("%.1f", v[3]),
		})
	}
	return t
}

// Fig4bResult samples the fitted Q₀ surface (Eq. 3) across bitrates for
// representative content, alongside the fit quality.
type Fig4bResult struct {
	Fit *Table2Result
	// Surface rows: (SI, TI, bitrate, Q0).
	Surface [][4]float64
}

// Fig4b reproduces the Fig. 4b surface: fit the model (as Table II), then
// sample Q₀ over bitrate for low/medium/high-complexity content.
func Fig4b(seed int64) (*Fig4bResult, error) {
	fit, err := Table2(seed)
	if err != nil {
		return nil, err
	}
	res := &Fig4bResult{Fit: fit}
	for _, ct := range [][2]float64{{35, 12}, {50, 25}, {65, 38}} {
		for _, b := range []float64{0.5, 1, 2, 4, 8} {
			q, err := fit.Fitted.Q0(ct[0], ct[1], b)
			if err != nil {
				return nil, err
			}
			res.Surface = append(res.Surface, [4]float64{ct[0], ct[1], b, q})
		}
	}
	return res, nil
}

// Render formats the Fig. 4b surface samples.
func (r *Fig4bResult) Render() Table {
	t := Table{
		Title:   fmt.Sprintf("Fig. 4b: fitted Q0 surface (Pearson r = %.4f; paper 0.9791)", r.Fit.Pearson),
		Columns: []string{"SI", "TI", "Bitrate (Mbps)", "Q0"},
	}
	for _, row := range r.Surface {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", row[0]), fmt.Sprintf("%.0f", row[1]),
			fmt.Sprintf("%.1f", row[2]), fmt.Sprintf("%.1f", row[3]),
		})
	}
	return t
}

// Fig5Result is the view-switching-speed distribution over the dataset.
type Fig5Result struct {
	// CDF holds (speed, cumulative probability) points at round speeds.
	CDF []stats.CDFPoint
	// FracAbove10 is the fraction of samples above 10°/s (paper: >30 %).
	FracAbove10 float64
	// Median is the median speed.
	Median float64
}

// Fig5 computes the Eq. 5 switching-speed distribution over every user and
// video at the given scale. Each trace's speeds are computed on the engine's
// worker pool and concatenated in (video, user) order, so the distribution
// is the same sample sequence whatever the worker count.
func Fig5(scale Scale) (*Fig5Result, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	datasets := make([]*headtrace.Dataset, len(scale.Videos))
	for i, id := range scale.Videos {
		p, err := video.ProfileByID(id)
		if err != nil {
			return nil, err
		}
		if datasets[i], err = datasetFor(p, scale.UsersPerVideo, scale.Seed); err != nil {
			return nil, err
		}
	}
	perTrace, err := sweep(len(datasets), scale.UsersPerVideo, func(v, u int) ([]float64, error) {
		return datasets[v].Traces[u].SwitchingSpeeds(), nil
	})
	if err != nil {
		return nil, err
	}
	speeds := slices.Concat(slices.Concat(perTrace...)...)
	med, err := stats.Median(speeds)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{
		FracAbove10: stats.FractionAbove(speeds, 10),
		Median:      med,
	}
	// Summarize the CDF at round speed thresholds like the published plot.
	for _, s := range []float64{1, 2, 5, 10, 20, 30, 50, 100, 200} {
		res.CDF = append(res.CDF, stats.CDFPoint{Value: s, P: 1 - stats.FractionAbove(speeds, s)})
	}
	return res, nil
}

// Render formats the Fig. 5 distribution.
func (r *Fig5Result) Render() Table {
	t := Table{
		Title: fmt.Sprintf("Fig. 5: view-switching-speed distribution (%.0f%% above 10°/s; paper >30%%; median %.1f°/s)",
			100*r.FracAbove10, r.Median),
		Columns: []string{"Speed (°/s)", "CDF"},
	}
	for _, p := range r.CDF {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.0f", p.Value), fmt.Sprintf("%.3f", p.P)})
	}
	return t
}

// Fig6Result contrasts unbounded density clustering with Algorithm 1 on one
// segment — the Fig. 6 Ptile-split example.
type Fig6Result struct {
	// UnboundedClusters and UnboundedMaxDiameter describe plain density
	// growth (the Fig. 6a oversized cluster).
	UnboundedClusters    int
	UnboundedMaxDiameter float64
	// DBSCANClusters, DBSCANNoise and DBSCANMaxDiameter describe the
	// density-based baseline the paper cites [22].
	DBSCANClusters    int
	DBSCANNoise       int
	DBSCANMaxDiameter float64
	// BoundedClusters and BoundedMaxDiameter describe Algorithm 1.
	BoundedClusters    int
	BoundedMaxDiameter float64
	// Ptiles are the rectangles Algorithm 1 yields.
	Ptiles []geom.Rect
}

// Fig6 runs the split example on a Freestyle-Skiing-like segment: the
// per-segment viewing centers of the training users at the segment where the
// unbounded cluster grows widest.
func Fig6(scale Scale) (*Fig6Result, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	setup, err := setupVideo(8, scale)
	if err != nil {
		return nil, err
	}
	params := cluster.DefaultParams()
	pcfg, err := ptile.DefaultConfig()
	if err != nil {
		return nil, err
	}

	// Find the segment with the widest unbounded cluster.
	bestSeg, bestDiam := 0, 0.0
	nSeg := setup.Profile.Segments(1)
	for seg := 0; seg < nSeg; seg += 5 {
		centers := centersAt(setup.Train, seg)
		grown, err := cluster.DensityGrow(centers, params.Delta)
		if err != nil {
			return nil, err
		}
		for _, cl := range grown {
			if d := cluster.Diameter(centers, cl.Members); d > bestDiam {
				bestDiam, bestSeg = d, seg
			}
		}
	}

	centers := centersAt(setup.Train, bestSeg)
	grown, err := cluster.DensityGrow(centers, params.Delta)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{UnboundedClusters: len(grown), UnboundedMaxDiameter: 0}
	for _, cl := range grown {
		if d := cluster.Diameter(centers, cl.Members); d > res.UnboundedMaxDiameter {
			res.UnboundedMaxDiameter = d
		}
	}
	dbClusters, dbNoise, err := cluster.DBSCAN(centers, params.Delta, 4)
	if err != nil {
		return nil, err
	}
	res.DBSCANClusters = len(dbClusters)
	res.DBSCANNoise = len(dbNoise)
	for _, cl := range dbClusters {
		if d := cluster.Diameter(centers, cl.Members); d > res.DBSCANMaxDiameter {
			res.DBSCANMaxDiameter = d
		}
	}
	bounded, err := cluster.ViewingCenters(centers, params)
	if err != nil {
		return nil, err
	}
	res.BoundedClusters = len(bounded)
	for _, cl := range bounded {
		if d := cluster.Diameter(centers, cl.Members); d > res.BoundedMaxDiameter {
			res.BoundedMaxDiameter = d
		}
	}
	seg, err := ptile.BuildSegment(centers, pcfg)
	if err != nil {
		return nil, err
	}
	for _, pt := range seg.Ptiles {
		res.Ptiles = append(res.Ptiles, pt.Rect)
	}
	return res, nil
}

func centersAt(traces []*headtrace.Trace, seg int) []geom.Point {
	centers := make([]geom.Point, 0, len(traces))
	for _, tr := range traces {
		if pt, err := tr.ViewingCenter(seg, 1); err == nil {
			centers = append(centers, pt)
		}
	}
	return centers
}

// Render formats the Fig. 6 example.
func (r *Fig6Result) Render() Table {
	t := Table{
		Title:   "Fig. 6: sigma-bounded Ptile construction vs unbounded density growth",
		Columns: []string{"Method", "Clusters", "Max diameter (°)"},
		Rows: [][]string{
			{"Density growth (Fig. 6a)", fmt.Sprintf("%d", r.UnboundedClusters), fmt.Sprintf("%.1f", r.UnboundedMaxDiameter)},
			{fmt.Sprintf("DBSCAN [22] (%d noise pts)", r.DBSCANNoise), fmt.Sprintf("%d", r.DBSCANClusters), fmt.Sprintf("%.1f", r.DBSCANMaxDiameter)},
			{"Algorithm 1 (Fig. 6b)", fmt.Sprintf("%d", r.BoundedClusters), fmt.Sprintf("%.1f", r.BoundedMaxDiameter)},
		},
	}
	for i, rect := range r.Ptiles {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Ptile %d", i+1), "",
			fmt.Sprintf("%gx%g at (%g, %g)", rect.W, rect.H, rect.X0, rect.Y0),
		})
	}
	return t
}

// Fig7Result holds the Ptile construction statistics per video.
type Fig7Result struct {
	// CountDist maps video ID → fraction of segments needing {1, 2, 3, ≥4}
	// Ptiles (index 0 → one Ptile).
	CountDist map[int][4]float64
	// Coverage maps video ID → mean fraction of training users covered.
	Coverage map[int]float64
}

// Fig7 evaluates the Ptile construction over every segment of every video
// at the given scale (Figs. 7a and 7b).
func Fig7(scale Scale) (*Fig7Result, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	res := &Fig7Result{
		CountDist: make(map[int][4]float64),
		Coverage:  make(map[int]float64),
	}
	for _, id := range scale.Videos {
		setup, err := setupVideo(id, scale)
		if err != nil {
			return nil, err
		}
		var dist [4]float64
		var coverage float64
		nSeg := len(setup.Catalog.Ptiles)
		for seg := 0; seg < nSeg; seg++ {
			n := len(setup.Catalog.Ptiles[seg])
			switch {
			case n <= 1:
				dist[0]++
			case n == 2:
				dist[1]++
			case n == 3:
				dist[2]++
			default:
				dist[3]++
			}
			coverage += setup.Catalog.Coverage[seg]
		}
		for i := range dist {
			dist[i] /= float64(nSeg)
		}
		res.CountDist[id] = dist
		res.Coverage[id] = coverage / float64(nSeg)
	}
	return res, nil
}

// Render formats the Fig. 7 statistics.
func (r *Fig7Result) Render() Table {
	t := Table{
		Title:   "Fig. 7: Ptile counts per segment (a) and user coverage (b)",
		Columns: []string{"Video", "1 Ptile", "2 Ptiles", "3 Ptiles", "4+ Ptiles", "Coverage"},
	}
	ids := make([]int, 0, len(r.CountDist))
	for id := range r.CountDist {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d := r.CountDist[id]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", id),
			fmt.Sprintf("%.0f%%", 100*d[0]), fmt.Sprintf("%.0f%%", 100*d[1]),
			fmt.Sprintf("%.0f%%", 100*d[2]), fmt.Sprintf("%.0f%%", 100*d[3]),
			fmt.Sprintf("%.1f%%", 100*r.Coverage[id]),
		})
	}
	return t
}

// Fig8Result holds the per-quality CDFs of the Ptile/Ctile size ratio.
type Fig8Result struct {
	// Medians maps video ID → per-quality median ratio (index q−1).
	Medians map[int][5]float64
	// CDFs maps video ID → quality → full ratio CDF.
	CDFs map[int]map[video.Quality][]stats.CDFPoint
}

// Fig8 measures, for each segment of the selected videos, the encoded size
// of the largest Ptile against the conventional tiles covering the same
// area, across the quality ladder (paper medians: 62/57/47/35/27 % at
// q = 5..1).
func Fig8(scale Scale) (*Fig8Result, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	enc := video.DefaultEncoderConfig()
	grid, err := geom.NewGrid(4, 8)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{
		Medians: make(map[int][5]float64),
		CDFs:    make(map[int]map[video.Quality][]stats.CDFPoint),
	}
	for _, id := range scale.Videos {
		setup, err := setupVideo(id, scale)
		if err != nil {
			return nil, err
		}
		ratios := make(map[video.Quality][]float64)
		for seg, ptiles := range setup.Catalog.Ptiles {
			if len(ptiles) == 0 {
				continue
			}
			sc := setup.Catalog.Content[seg]
			pt := ptiles[0]
			tiles := grid.CoveringTiles(pt.Rect)
			for q := video.MinQuality; q <= video.MaxQuality; q++ {
				var ctileBits float64
				for _, tid := range tiles {
					b, err := enc.TileBits(video.TileSpec{Rect: grid.TileRect(tid), Quality: q}, 1, sc)
					if err != nil {
						return nil, err
					}
					ctileBits += b
				}
				ptileBits, err := enc.TileBits(video.TileSpec{Rect: pt.Rect, Quality: q, Kind: video.KindPtile}, 1, sc)
				if err != nil {
					return nil, err
				}
				ratios[q] = append(ratios[q], ptileBits/ctileBits)
			}
		}
		var med [5]float64
		cdfs := make(map[video.Quality][]stats.CDFPoint)
		for q := video.MinQuality; q <= video.MaxQuality; q++ {
			m, err := stats.Median(ratios[q])
			if err != nil {
				return nil, err
			}
			med[int(q)-1] = m
			cdf, err := stats.CDF(ratios[q])
			if err != nil {
				return nil, err
			}
			cdfs[q] = cdf
		}
		res.Medians[id] = med
		res.CDFs[id] = cdfs
	}
	return res, nil
}

// Render formats the Fig. 8 medians.
func (r *Fig8Result) Render() Table {
	t := Table{
		Title:   "Fig. 8: median Ptile/Ctile size ratio per quality (paper: 27/35/47/57/62 % at q1..q5)",
		Columns: []string{"Video", "q1", "q2", "q3", "q4", "q5"},
	}
	ids := make([]int, 0, len(r.Medians))
	for id := range r.Medians {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		m := r.Medians[id]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", id),
			fmt.Sprintf("%.0f%%", 100*m[0]), fmt.Sprintf("%.0f%%", 100*m[1]),
			fmt.Sprintf("%.0f%%", 100*m[2]), fmt.Sprintf("%.0f%%", 100*m[3]),
			fmt.Sprintf("%.0f%%", 100*m[4]),
		})
	}
	return t
}
