// Package ptilelive is the online Ptile pipeline: it consumes viewport
// reports from live viewers (httpstream client telemetry, the fleet
// engine's segment completions, or replayed traces), maintains bounded
// per-segment sliding windows through cluster.Stream, and regenerates
// versioned Ptile groups with the same geometric construction the offline
// catalogue uses (ptile.BuildSegmentClusters). Each Rebuild yields a
// monotonically versioned Build that httpstream's catalog hot-swap
// publishes to the serving tier without a restart.
//
// The paper builds Ptiles offline from 48 historical traces; this stage is
// the ROADMAP's production counterpart, in the spirit of the related
// server-side rate-adaptation work (Zou et al., arXiv 1906.08575; Zhao et
// al., arXiv 2107.09491) where tile popularity is aggregated across live
// viewers and continuously refreshed.
package ptilelive

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ptile360/internal/cluster"
	"ptile360/internal/geom"
	"ptile360/internal/obs"
	"ptile360/internal/parallel"
	"ptile360/internal/ptile"
	"ptile360/internal/sim"
)

// Report is one viewport observation: a session watched (or was predicted
// to watch) Center during the given video segment.
type Report struct {
	Video   int
	Segment int
	Center  geom.Point
}

// Config parameterizes the pipeline.
type Config struct {
	// Ptile is the geometric construction setting shared with the offline
	// catalogue (grid, FoV, absolute MinUsers floor, Algorithm 1 params —
	// the latter unused here since clustering comes from cluster.Stream).
	Ptile ptile.Config
	// Stream is the windowed clustering setting (eps/minPts/cap/seed).
	// Per-video streams fork their seed from Stream.Seed and the video ID,
	// so the whole pipeline is deterministic for a fixed report sequence.
	Stream cluster.StreamConfig
	// MinUsersFrac scales the Ptile admission threshold with the window
	// population: a cluster earns a Ptile when it holds at least
	// max(Ptile.MinUsers, round(MinUsersFrac·windowLen)) members. The
	// paper's offline rule (5 of 48 users ≈ 10 %) is the natural setting;
	// 0 keeps the absolute Ptile.MinUsers only.
	MinUsersFrac float64
	// Workers bounds the parallel.ForEach pool re-clustering dirty
	// segments during Rebuild (0 = GOMAXPROCS).
	Workers int
	// Registry receives the ptilelive_* metrics; nil disables them.
	Registry *obs.Registry
}

// DefaultConfig returns the paper-aligned setting: offline Ptile geometry,
// eps of half the Algorithm 1 cluster radius σ, windows of
// cluster.DefaultWindowCap reports, 10 % admission.
func DefaultConfig() (Config, error) {
	pcfg, err := ptile.DefaultConfig()
	if err != nil {
		return Config{}, err
	}
	return Config{
		Ptile:        pcfg,
		Stream:       cluster.StreamConfig{Eps: pcfg.Params.Sigma / 2, MinPts: 2, Seed: 1},
		MinUsersFrac: 0.10,
	}, nil
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Ptile.Validate(); err != nil {
		return err
	}
	if err := c.Stream.Validate(); err != nil {
		return err
	}
	if c.MinUsersFrac < 0 || c.MinUsersFrac > 1 || math.IsNaN(c.MinUsersFrac) {
		return fmt.Errorf("ptilelive: MinUsersFrac %g outside [0, 1]", c.MinUsersFrac)
	}
	if c.Workers < 0 {
		return fmt.Errorf("ptilelive: negative workers %d", c.Workers)
	}
	return nil
}

// Build is one versioned regeneration outcome for a video: the manifest the
// hot-swap publishes.
type Build struct {
	// Version increases by one per Rebuild that re-clustered at least one
	// segment; an idle Rebuild returns the previous version unchanged.
	Version int64
	Video   int
	// Rebuilt lists the segments re-clustered by this build, ascending.
	Rebuilt []int
	// Segments holds the current Ptile construction per segment (every
	// segment ever built, not just this build's).
	Segments map[int]ptile.SegmentResult
	// Reports and Windows summarize the input: total reports ingested for
	// this video and total points currently retained across windows.
	Reports int64
	Windows int
}

// Ptiles returns the total Ptile count across segments.
func (b Build) Ptiles() int {
	n := 0
	for _, r := range b.Segments {
		n += len(r.Ptiles)
	}
	return n
}

// videoState is the per-video pipeline state.
type videoState struct {
	stream  *cluster.Stream
	results map[int]ptile.SegmentResult
	version int64
	reports int64
	last    cluster.StreamStats // counters already published as deltas

	ptilesGauge  *obs.Gauge
	versionGauge *obs.Gauge
}

// Pipeline is the online Ptile stage. All methods are safe for concurrent
// use; Rebuild serializes against Ingest so windows cannot shift under a
// running re-cluster (the parallel fan-out inside Rebuild touches disjoint
// segments, which cluster.Stream permits).
type Pipeline struct {
	cfg Config

	mu     sync.Mutex
	videos map[int]*videoState

	// lastRebuild is the wall time of the most recent Rebuild pass (unix
	// nanoseconds, 0 = never), read lock-free by /healthz staleness probes.
	lastRebuild atomic.Int64

	reportsTotal    *obs.Counter
	rebuildsTotal   *obs.Counter
	reclusteredSegs *obs.Counter
	evictionsTotal  *obs.Counter
	dropsTotal      *obs.Counter
}

// New validates the configuration and builds an empty pipeline.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{cfg: cfg, videos: make(map[int]*videoState)}
	if reg := cfg.Registry; reg != nil {
		p.reportsTotal = reg.Counter("ptilelive_reports_total",
			"Viewport reports ingested by the online Ptile pipeline.")
		p.rebuildsTotal = reg.Counter("ptilelive_rebuilds_total",
			"Rebuild passes that re-clustered at least one segment.")
		p.reclusteredSegs = reg.Counter("ptilelive_segments_reclustered_total",
			"Segment windows re-clustered across rebuilds.")
		p.evictionsTotal = reg.Counter("ptilelive_window_evictions_total",
			"Retained viewport reports replaced by reservoir sampling.")
		p.dropsTotal = reg.Counter("ptilelive_window_drops_total",
			"Viewport reports declined by full reservoirs.")
	}
	return p, nil
}

func (p *Pipeline) videoFor(id int) *videoState {
	vs := p.videos[id]
	if vs == nil {
		scfg := p.cfg.Stream
		// Decorrelate per-video reservoirs while keeping determinism.
		scfg.Seed = scfg.Seed*1000003 + int64(id)
		st, err := cluster.NewStream(scfg)
		if err != nil {
			// Config was validated in New; per-video derivation only
			// changes the seed.
			panic(fmt.Sprintf("ptilelive: video %d stream: %v", id, err))
		}
		vs = &videoState{stream: st, results: make(map[int]ptile.SegmentResult)}
		if reg := p.cfg.Registry; reg != nil {
			label := obs.L("video", strconv.Itoa(id))
			vs.ptilesGauge = reg.Gauge("ptilelive_ptiles",
				"Current online Ptile count per video.", label)
			vs.versionGauge = reg.Gauge("ptilelive_build_version",
				"Current online catalog build version per video.", label)
		}
		p.videos[id] = vs
	}
	return vs
}

// Ingest feeds one viewport report into the video's windowed clustering.
// Reports for negative segments are dropped.
func (p *Pipeline) Ingest(r Report) {
	if r.Segment < 0 {
		return
	}
	p.mu.Lock()
	vs := p.videoFor(r.Video)
	vs.stream.Add(r.Segment, r.Center)
	vs.reports++
	p.mu.Unlock()
	if p.reportsTotal != nil {
		p.reportsTotal.Inc()
	}
}

// IngestTelemetry adapts a per-segment client telemetry record into a
// viewport report. Abandoned segments still carry the predicted center the
// client fetched for, so they count as views.
func (p *Pipeline) IngestTelemetry(video, segment int, viewX, viewY float64) {
	p.Ingest(Report{Video: video, Segment: segment, Center: geom.Point{X: viewX, Y: viewY}})
}

// Rebuild re-clusters every dirty segment window of the video (in parallel
// across segments) and regenerates their Ptiles. It returns the current
// Build; when nothing was dirty the previous version is returned unchanged.
func (p *Pipeline) Rebuild(video int) (Build, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	vs := p.videoFor(video)
	dirty := vs.stream.DirtySegments()
	if len(dirty) > 0 {
		results := make([]ptile.SegmentResult, len(dirty))
		if err := parallel.ForEach(len(dirty), p.cfg.Workers, func(i int) error {
			seg := dirty[i]
			clusters, _, ok := vs.stream.Cluster(seg)
			if !ok {
				return fmt.Errorf("ptilelive: dirty segment %d vanished", seg)
			}
			window := vs.stream.Window(seg)
			cfg := p.cfg.Ptile
			if byFrac := int(math.Round(p.cfg.MinUsersFrac * float64(len(window)))); byFrac > cfg.MinUsers {
				cfg.MinUsers = byFrac
			}
			res, err := ptile.BuildSegmentClusters(window, clusters, cfg)
			if err != nil {
				return fmt.Errorf("ptilelive: segment %d: %w", seg, err)
			}
			results[i] = res
			return nil
		}); err != nil {
			return Build{}, err
		}
		for i, seg := range dirty {
			vs.results[seg] = results[i]
		}
		vs.version++
		if p.rebuildsTotal != nil {
			p.rebuildsTotal.Inc()
			p.reclusteredSegs.Add(float64(len(dirty)))
		}
	}
	b := p.buildLocked(video, vs, dirty)
	p.publishLocked(vs, b)
	p.lastRebuild.Store(time.Now().UnixNano())
	return b, nil
}

// RebuildAge returns the time since the last Rebuild pass, or -1 before the
// first one — the /healthz rebuild-staleness field.
func (p *Pipeline) RebuildAge() time.Duration {
	ns := p.lastRebuild.Load()
	if ns == 0 {
		return -1
	}
	return time.Duration(time.Now().UnixNano() - ns)
}

// Current returns the latest build without re-clustering anything.
func (p *Pipeline) Current(video int) Build {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buildLocked(video, p.videoFor(video), nil)
}

func (p *Pipeline) buildLocked(video int, vs *videoState, rebuilt []int) Build {
	b := Build{
		Version:  vs.version,
		Video:    video,
		Rebuilt:  append([]int(nil), rebuilt...),
		Segments: make(map[int]ptile.SegmentResult, len(vs.results)),
		Reports:  vs.reports,
	}
	for seg, res := range vs.results {
		b.Segments[seg] = res
		b.Windows += res.TotalUsers
	}
	return b
}

// publishLocked pushes gauges and the stream-stat deltas into the registry.
func (p *Pipeline) publishLocked(vs *videoState, b Build) {
	if p.cfg.Registry == nil {
		return
	}
	vs.ptilesGauge.Set(float64(b.Ptiles()))
	vs.versionGauge.Set(float64(b.Version))
	st := vs.stream.Stats()
	p.evictionsTotal.Add(float64(st.Evictions - vs.last.Evictions))
	p.dropsTotal.Add(float64(st.Drops - vs.last.Drops))
	vs.last = st
}

// Videos returns every video the pipeline has seen, ascending.
func (p *Pipeline) Videos() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, len(p.videos))
	for id := range p.videos {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// ApplyToCatalog returns a copy-on-write catalogue: the base catalogue with
// the video's online Ptiles (and their coverage fractions) substituted at
// every segment the pipeline has built. Content, Ftiles, and segments
// without online data are shared with the base untouched; the base is never
// mutated, so a serving tier can hot-swap the result atomically while
// sessions pinned to the old catalogue keep reading it.
func (p *Pipeline) ApplyToCatalog(base *sim.Catalog) *sim.Catalog {
	b := p.Current(base.Video.ID)
	next := &sim.Catalog{
		Video:      base.Video,
		SegmentSec: base.SegmentSec,
		Content:    base.Content,
		Ptiles:     make([][]ptile.Ptile, len(base.Ptiles)),
		Ftiles:     base.Ftiles,
		Coverage:   make([]float64, len(base.Coverage)),
	}
	copy(next.Ptiles, base.Ptiles)
	copy(next.Coverage, base.Coverage)
	for seg, res := range b.Segments {
		if seg < 0 || seg >= len(next.Ptiles) {
			continue
		}
		next.Ptiles[seg] = res.Ptiles
		if seg < len(next.Coverage) {
			next.Coverage[seg] = res.CoverageFraction()
		}
	}
	return next
}
