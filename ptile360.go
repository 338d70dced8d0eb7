// Package ptile360 is a trace-driven reproduction of "Energy-Efficient and
// QoE-Aware 360-Degree Video Streaming on Mobile Devices" (Chen & Cao, IEEE
// ICDCS 2022).
//
// The package is the public façade over the internal substrates: it prepares
// per-video server catalogues (Ptile construction from training users'
// head-movement traces), streams evaluation sessions under the paper's five
// schemes (Ctile, Ftile, Nontile, Ptile, Ours), and regenerates every table
// and figure of the paper's evaluation.
//
// Quick start:
//
//	sys, err := ptile360.NewSystem(ptile360.FullScale())
//	prep, err := sys.PrepareVideo(8)          // build Ptiles for video 8
//	fmt.Println(len(prep.Eval))               // 8 held-out viewers
//	res, err := sys.Stream(prep, 0, ptile360.SchemeOurs, ptile360.Pixel3, 2)
//	fmt.Println(res.Energy.Total(), res.QoE.MeanQ)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for paper-vs-measured
// results.
package ptile360

import (
	"fmt"

	"ptile360/internal/experiments"
	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/power"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// Re-exported types: the façade aliases the internal vocabulary so library
// users can name every type they receive.
type (
	// Scheme is a streaming approach under evaluation.
	Scheme = sim.Scheme
	// Phone selects a Table I power model.
	Phone = power.Phone
	// SessionResult is the outcome of one streaming session.
	SessionResult = sim.Result
	// Catalog is a prepared per-video server catalogue.
	Catalog = sim.Catalog
	// Scale sets the workload size of a System and of the experiments.
	Scale = experiments.Scale
	// Prepared is a video prepared for streaming: its catalogue and its
	// training and evaluation users.
	Prepared = sim.Video
	// Table is a printable experiment output.
	Table = experiments.Table
	// VideoProfile describes one Table III test video.
	VideoProfile = video.Profile
	// HeadTrace is one user's head-movement record.
	HeadTrace = headtrace.Trace
	// NetworkTrace is an LTE bandwidth time series.
	NetworkTrace = lte.Trace
)

// Streaming schemes (Section V-A).
const (
	SchemeCtile   = sim.SchemeCtile
	SchemeFtile   = sim.SchemeFtile
	SchemeNontile = sim.SchemeNontile
	SchemePtile   = sim.SchemePtile
	SchemeOurs    = sim.SchemeOurs
)

// Measured phones (Table I).
const (
	Nexus5X   = power.Nexus5X
	Pixel3    = power.Pixel3
	GalaxyS20 = power.GalaxyS20
)

// System is a prepared streaming test-bed: network traces plus per-video
// catalogues prepared on request.
type System struct {
	scale  Scale
	trace1 *lte.Trace
	trace2 *lte.Trace
}

// NewSystem validates the scale and generates the two network conditions
// (trace 1 = 2 × trace 2, Section V-A). The system reads the scale's
// UsersPerVideo, TrainUsers, TraceSamples and Seed; equal scales reproduce
// bit-identical systems. Its Videos and EvalUsers steer the experiments
// only: PrepareVideo takes any Table III video and keeps every held-out
// viewer.
func NewSystem(scale Scale) (*System, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	tr1, tr2, err := lte.StandardTraces(scale.TraceSamples, scale.Seed+99)
	if err != nil {
		return nil, err
	}
	return &System{scale: scale, trace1: tr1, trace2: tr2}, nil
}

// Videos lists the Table III test videos.
func Videos() []VideoProfile { return video.Catalog() }

// PrepareVideo generates the head-movement dataset for the given Table III
// video, splits it into training and evaluation users, and constructs the
// Ptile catalogue from the training set (Section IV-A; sim.PrepareVideo).
func (s *System) PrepareVideo(videoID int) (*Prepared, error) {
	p, err := video.ProfileByID(videoID)
	if err != nil {
		return nil, err
	}
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = s.scale.UsersPerVideo
	ds, err := headtrace.Generate(p, gcfg, s.scale.Seed)
	if err != nil {
		return nil, err
	}
	return sim.PrepareVideo(ds, s.scale.TrainUsers, s.scale.Seed, 0)
}

// Trace returns one of the two standard network conditions (1 or 2).
func (s *System) Trace(traceID int) (*NetworkTrace, error) {
	switch traceID {
	case 1:
		return s.trace1, nil
	case 2:
		return s.trace2, nil
	default:
		return nil, fmt.Errorf("ptile360: trace ID %d outside {1, 2}", traceID)
	}
}

// Stream runs one full playback session: evaluation user evalIdx of the
// prepared video streams under the given scheme on the given phone over
// network condition traceID.
func (s *System) Stream(prep *Prepared, evalIdx int, scheme Scheme, phone Phone, traceID int) (*SessionResult, error) {
	var user *HeadTrace
	if prep != nil { // StreamConfig rejects a nil prep
		if evalIdx < 0 || evalIdx >= len(prep.Eval) {
			return nil, fmt.Errorf("ptile360: eval user %d outside [0, %d)", evalIdx, len(prep.Eval))
		}
		user = prep.Eval[evalIdx]
	}
	cfg, err := sim.DefaultConfig(scheme, phone)
	if err != nil {
		return nil, err
	}
	return s.StreamConfig(prep, user, traceID, cfg)
}

// StreamConfig exposes the full session configuration for advanced callers.
func (s *System) StreamConfig(prep *Prepared, user *HeadTrace, traceID int, cfg sim.Config) (*SessionResult, error) {
	if prep == nil {
		return nil, fmt.Errorf("ptile360: nil prepared video")
	}
	net, err := s.Trace(traceID)
	if err != nil {
		return nil, err
	}
	return sim.Run(prep.Catalog, user, net, cfg)
}
