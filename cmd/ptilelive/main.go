// Command ptilelive runs the online-Ptile convergence experiment: how many
// live viewers does the streaming pipeline (internal/ptilelive — sliding
// windows over grid-indexed DBSCAN, ptile.BuildSegmentClusters geometry)
// need before its regenerated Ptiles serve held-out viewers as well as the
// offline catalogue built from dedicated training traces?
//
// The experiment feeds viewport reports from a growing live audience into
// the pipeline and, at geometric checkpoints (1, 2, 4, ... viewers),
// rebuilds and measures coverage on an eval set that neither the offline
// catalogue nor the online pipeline ever saw: the fraction of
// (viewer, segment) pairs whose snapped FoV is fully inside some Ptile.
// One JSON line per checkpoint goes to stdout, ready for a JSONL log;
// the offline catalogue's coverage on the same eval set is the horizontal
// asymptote the online curve should approach.
//
// Usage:
//
//	ptilelive -video 2 -viewers 256 -eval-users 12 > convergence.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ptile360/internal/headtrace"
	"ptile360/internal/obs"
	"ptile360/internal/ptile"
	"ptile360/internal/ptilelive"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// record is one JSONL checkpoint line.
type record struct {
	Video           int     `json:"video"`
	Viewers         int     `json:"viewers"`
	Reports         int64   `json:"reports"`
	BuildVersion    int64   `json:"build_version"`
	WindowPoints    int     `json:"window_points"`
	PtilesOnline    int     `json:"ptiles_online"`
	PtilesOffline   int     `json:"ptiles_offline"`
	CoverageOnline  float64 `json:"coverage_online"`
	CoverageOffline float64 `json:"coverage_offline"`
	WallSec         float64 `json:"wall_sec"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		videoID   = flag.Int("video", 2, "Table III video ID")
		users     = flag.Int("users", 14, "viewers generated for the offline catalogue (5/6 train the catalogue, the rest are the shared eval set)")
		evalUsers = flag.Int("eval-users", 12, "extra held-out viewers to measure coverage on (added to the catalogue's eval split)")
		viewers   = flag.Int("viewers", 256, "live audience size the online pipeline ingests")
		seed      = flag.Int64("seed", 42, "random seed (live audience and eval set fork from it)")
		logCfg    = obs.LogFlags(nil)
	)
	flag.Parse()
	logger, err := logCfg.NewLogger(os.Stderr)
	if err != nil {
		os.Stderr.WriteString("ptilelive: " + err.Error() + "\n")
		return 2
	}

	p, err := video.ProfileByID(*videoID)
	if err != nil {
		logger.Error("unknown video profile", "video", *videoID, "err", err)
		return 2
	}

	// Offline reference: the catalogue exactly as the simulator builds it,
	// from a dedicated training split.
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = *users
	ds, err := headtrace.Generate(p, gcfg, *seed)
	if err != nil {
		logger.Error("head-trace generation failed", "err", err)
		return 1
	}
	prep, err := sim.PrepareVideo(ds, *users*5/6, *seed, 0)
	if err != nil {
		logger.Error("video preparation failed", "err", err)
		return 1
	}
	cat, eval := prep.Catalog, prep.Eval

	// Measurement set: the catalogue's own eval split plus extra held-out
	// viewers, none of which feed either pipeline.
	if *evalUsers > 0 {
		ecfg := headtrace.DefaultGeneratorConfig()
		ecfg.NumUsers = *evalUsers
		eds, err := headtrace.Generate(p, ecfg, *seed+7919)
		if err != nil {
			logger.Error("eval-trace generation failed", "err", err)
			return 1
		}
		eval = append(eval, eds.Traces...)
	}

	// Live audience: fresh viewers of the same video, disjoint seeds from
	// both the training and eval sets.
	lcfg := headtrace.DefaultGeneratorConfig()
	lcfg.NumUsers = *viewers
	live, err := headtrace.Generate(p, lcfg, *seed+104729)
	if err != nil {
		logger.Error("live-trace generation failed", "err", err)
		return 1
	}

	pcfg, err := ptilelive.DefaultConfig()
	if err != nil {
		logger.Error("pipeline config failed", "err", err)
		return 1
	}
	pcfg.Stream.Seed = *seed
	pipe, err := ptilelive.New(pcfg)
	if err != nil {
		logger.Error("pipeline construction failed", "err", err)
		return 1
	}

	nSeg := len(cat.Ptiles)
	offCov := coverage(eval, cat.Ptiles, nSeg, cat.SegmentSec, pcfg.Ptile)
	offPtiles := 0
	for _, ps := range cat.Ptiles {
		offPtiles += len(ps)
	}
	logger.Info("offline reference ready", "video", *videoID, "segments", nSeg,
		"ptiles", offPtiles, "coverage", fmt.Sprintf("%.3f", offCov),
		"eval_viewers", len(eval), "live_viewers", *viewers)

	enc := json.NewEncoder(os.Stdout)
	start := time.Now()
	next := 1
	for n := 1; n <= *viewers; n++ {
		tr := live.Traces[n-1]
		for seg := 0; seg < nSeg; seg++ {
			center, err := tr.ViewingCenter(seg, cat.SegmentSec)
			if err != nil {
				logger.Error("viewing center failed", "viewer", n-1, "segment", seg, "err", err)
				return 1
			}
			pipe.Ingest(ptilelive.Report{Video: *videoID, Segment: seg, Center: center})
		}
		if n != next && n != *viewers {
			continue
		}
		if n == next {
			next *= 2
		}
		b, err := pipe.Rebuild(*videoID)
		if err != nil {
			logger.Error("rebuild failed", "viewers", n, "err", err)
			return 1
		}
		online := make([][]ptile.Ptile, nSeg)
		onPtiles := 0
		for seg, res := range b.Segments {
			online[seg] = res.Ptiles
			onPtiles += len(res.Ptiles)
		}
		rec := record{
			Video:           *videoID,
			Viewers:         n,
			Reports:         b.Reports,
			BuildVersion:    b.Version,
			WindowPoints:    b.Windows,
			PtilesOnline:    onPtiles,
			PtilesOffline:   offPtiles,
			CoverageOnline:  coverage(eval, online, nSeg, cat.SegmentSec, pcfg.Ptile),
			CoverageOffline: offCov,
			WallSec:         time.Since(start).Seconds(),
		}
		if err := enc.Encode(rec); err != nil {
			logger.Error("record encode failed", "err", err)
			return 1
		}
	}
	return 0
}

// coverage returns the fraction of (eval viewer, segment) pairs whose FoV
// tile block lies entirely inside at least one of the segment's Ptiles —
// the user-coverage metric of Fig. 7b, evaluated on held-out viewers.
func coverage(eval []*headtrace.Trace, ptiles [][]ptile.Ptile, nSeg int, segSec float64, cfg ptile.Config) float64 {
	covered, total := 0, 0
	for _, tr := range eval {
		for seg := 0; seg < nSeg; seg++ {
			center, err := tr.ViewingCenter(seg, segSec)
			if err != nil {
				continue
			}
			total++
			for _, pt := range ptiles[seg] {
				if pt.Covers(cfg.Grid, center, cfg.FoVDeg) {
					covered++
					break
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}
