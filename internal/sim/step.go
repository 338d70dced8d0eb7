package sim

import (
	"fmt"
	"math"

	"ptile360/internal/abr"
	"ptile360/internal/geom"
	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/qoe"
)

// This file is the resumable form of the session loop. Run streams a whole
// video in one blocking call; fleet-scale schedulers instead advance
// sessions one segment at a time from a virtual-clock event queue. The
// split is:
//
//   - Stepper carries everything shared by sessions of one
//     (catalogue, config) pair — power model, controllers, plan tables, FoV
//     LUT — plus the recycled planning scratch. It is the expensive part
//     (kilobytes of DP and plan buffers) and exists once per worker, not
//     once per session.
//   - State is the compact persistent state of one viewer: clocks, buffer,
//     download link, bandwidth-estimator window, previous-choice memory, and
//     the running accounting sums. It is a few hundred bytes, so a million
//     concurrent sessions fit in one process.
//
// One step is two functions. compute reads a State and writes only a
// stepDelta: the wait rule, the viewport prediction, the plan, the
// controller decision, the download, and the segment's Eq. 1 energy and
// Eq. 2 QoE. apply writes a delta into a State and is the only code that
// mutates a bound State, so a failed compute leaves the State as it was.
// Step is compute followed by apply. Run is NewStepper + NewState + a Step
// loop, and the fleet, the packet-level path and the HTTP client step with
// Step too, so every path executes the same code.

// Stepper advances resumable sessions of one (catalogue, config) pair. It
// owns mutable planning scratch, so it must not be shared by concurrent
// goroutines — give each worker its own. It keeps nothing per viewer: a
// session's head series is the viewer trace's own memoized XYSeries, so
// sim.Run, the fleet and the HTTP client share one series per viewer.
type Stepper struct {
	s       session
	estKind predict.EstimatorKind
	// netSeen remembers bandwidth traces that already passed Validate, so a
	// fleet joining many sessions onto a shared trace scans it once, not
	// once per join. Traces are immutable by contract after first use.
	netSeen map[*lte.Trace]struct{}
}

// State is the compact persistent state of one resumable session. Create
// with Stepper.NewState, advance with Stepper.Step, and settle the
// accounting with Stepper.Finish. A State is bound to the stepper's
// (catalogue, config); any stepper built from the same pair may advance it.
type State struct {
	user *headtrace.Trace
	// link is the download path: a bandwidth trace (InitState), a
	// packet-level emulated path (NewStateNetem) or any other Link
	// (NewStateLink). On a trace the State is a function of (user, trace,
	// steps taken), which lets the fleet share one State among sessions
	// that join together; any other link carries state of its own.
	link Link
	bw   predict.Estimator
	// bwStore is the in-struct home of the default harmonic estimator, so a
	// bulk-allocated State (fleet slabs) costs no separate estimator
	// allocation; bw points at it then. Because bwStore's window may alias
	// its own inline array, a State must not be copied by value after
	// InitState.
	bwStore predict.Bandwidth
	// xs, ys alias the viewer trace's memoized XYSeries (read-only).
	xs, ys []float64

	nextSeg    int
	tWall      float64
	buffer     float64
	prevQ0     float64
	hasPrevQ0  bool
	prevChoice abr.Option
	hasPrev    bool

	// Running accounting, folded exactly as Run's result loop would.
	energy        EnergyBreakdown
	bits          float64
	qualitySum    float64
	frameRateSum  float64
	segments      int
	ptileSegments int
	viewportHits  int
	emergencies   int
	acc           qoe.Accumulator
	perSegment    []SegmentTrace
}

// Link is a session's download path. Step hands it one Fetch per segment:
// traceLink integrates a bandwidth trace, netLink runs the packet-level
// emulated path, and the HTTP client fetches over the network with retries
// and a degradation ladder.
type Link interface {
	// Download performs f's request and fills in its outcome. An error
	// fails the step.
	Download(f *Fetch) error
	// RateAt returns the bandwidth available at time t. It seeds the
	// estimator at t = 0 and stands in for the throughput of a download
	// that took no time.
	RateAt(t float64) float64
	// Packets returns the delivered packets of the most recent Download in
	// arrival order; nil on a segment-level link.
	Packets() []netem.PacketSample
}

// Fetch is one segment download: the request compute hands a Link, and the
// outcome the link reports back.
type Fetch struct {
	// Segment is the segment index, and StartSec the session clock when
	// the request is issued (after the wait rule).
	Segment  int
	StartSec float64
	// Options are the plan's versions and Chosen the controller's pick.
	// Options aliases planning scratch and is valid only during Download.
	Options []abr.OptionMeta
	Chosen  abr.OptionMeta
	// Ptile indexes the serving Ptile in the catalogue's Ptiles for the
	// segment; -1 on the conventional-tile fallback.
	Ptile int
	// Center is the predicted viewport center the plan was built for.
	Center geom.Point

	// Used is the version the link delivered and DownloadSec its download
	// time.
	Used        abr.OptionMeta
	DownloadSec float64
	// WastedSec is the time burned by failed attempts, and Retries their
	// count.
	WastedSec float64
	Retries   int
	// DegradeSteps is the ladder rung below Chosen that Used was delivered
	// on: positive exactly when Used is not Chosen.
	DegradeSteps int
	// Abandoned reports that the link gave up on the segment; Used,
	// DownloadSec and DegradeSteps are then ignored.
	Abandoned bool
}

// traceLink is a bandwidth trace as a link. The trace was validated when it
// was bound (InitState), so downloads skip the per-call scan.
type traceLink lte.Trace

func (l *traceLink) Download(f *Fetch) error {
	dl, err := (*lte.Trace)(l).DownloadTimeTrusted(f.Chosen.SizeBits, f.StartSec)
	f.Used, f.DownloadSec = f.Chosen, dl
	return err
}

func (l *traceLink) RateAt(t float64) float64 { return (*lte.Trace)(l).At(t) }

func (l *traceLink) Packets() []netem.PacketSample { return nil }

// netLink is a packet-level emulated path as a link.
type netLink netem.SessionNet

func (l *netLink) Download(f *Fetch) error {
	dl, err := (*netem.SessionNet)(l).Download(f.Chosen.SizeBits, f.StartSec)
	f.Used, f.DownloadSec = f.Chosen, dl
	return err
}

func (l *netLink) RateAt(t float64) float64 { return (*netem.SessionNet)(l).RateAt(t) }

func (l *netLink) Packets() []netem.PacketSample { return (*netem.SessionNet)(l).Packets() }

// Segment returns the index of the next segment Step would fetch.
func (st *State) Segment() int { return st.nextSeg }

// WallSec returns the session-local wall clock (seconds since the session
// started) after the last completed download.
func (st *State) WallSec() float64 { return st.tWall }

// BufferSec returns the current playback buffer level in seconds.
func (st *State) BufferSec() float64 { return st.buffer }

// Segments returns the number of segments streamed so far.
func (st *State) Segments() int { return st.segments }

// PerSegment returns the rows recorded so far when Config.RecordSegments is
// set, one per step; the slice aliases the state's own.
func (st *State) PerSegment() []SegmentTrace { return st.perSegment }

// EstimateBps returns the session's current bandwidth estimate in bits per
// second, or 0 before the estimator has warmed up.
func (st *State) EstimateBps() float64 {
	if st.bw == nil || !st.bw.Ready() {
		return 0
	}
	est, err := st.bw.Estimate()
	if err != nil {
		return 0
	}
	return est
}

// StepInfo reports one Step: the timing a scheduler needs to place the
// download-completion event on its virtual clock.
type StepInfo struct {
	// Segment is the segment index this step fetched.
	Segment int `json:"segment"`
	// WaitSec is the pre-request pacing wait (buffer above β).
	WaitSec float64 `json:"wait_sec"`
	// DownloadSec is the time the fetch took: the delivering download plus
	// any failed attempts before it.
	DownloadSec float64 `json:"download_sec"`
	// StallSec is the rebuffering charged to this segment.
	StallSec float64 `json:"stall_sec"`
	// WallSec is the session-local wall clock when the download completed.
	WallSec float64 `json:"wall_sec"`
	// BufferSec is the buffer level after the segment was appended.
	BufferSec float64 `json:"buffer_sec"`
	// Done reports that no segments remain: the session is complete and
	// ready for Finish.
	Done bool `json:"done"`
}

// NewStepper validates the configuration against the catalogue and builds
// the shared session runtime.
func NewStepper(cat *Catalog, cfg Config) (*Stepper, error) {
	pr, err := NewPricer(cat, cfg)
	if err != nil {
		return nil, err
	}
	if cat.SegmentSec != cfg.SegmentSec {
		return nil, fmt.Errorf("sim: catalogue segment duration %g != config %g", cat.SegmentSec, cfg.SegmentSec)
	}
	pm, err := power.TableI(cfg.Phone)
	if err != nil {
		return nil, err
	}
	mpcCfg := abr.DefaultConfig(pm.Tx)
	mpcCfg.Horizon = cfg.Horizon
	mpcCfg.SegmentSec = cfg.SegmentSec
	mpcCfg.BufferCapSec = cfg.BufferCapSec
	mpcCfg.Epsilon = cfg.Epsilon
	mpc, err := abr.NewEnergyMPC(mpcCfg)
	if err != nil {
		return nil, err
	}
	qoeMPC, err := abr.NewQoEMPC(mpcCfg, cfg.Weights.Variation)
	if err != nil {
		return nil, err
	}
	rateCtl, err := abr.NewRateBased(cfg.RateSafety)
	if err != nil {
		return nil, err
	}
	estKind := cfg.Estimator
	if estKind == 0 {
		estKind = predict.EstimatorHarmonic
	}
	// Validate the estimator kind once here so a bad configuration fails at
	// stepper construction, not at the first NewState.
	if _, err := predict.NewEstimator(estKind, cfg.BandwidthWindow); err != nil {
		return nil, err
	}

	st := &Stepper{
		s: session{
			Pricer: *pr,
			pm:     pm, mpc: mpc, qoeMPC: qoeMPC, rate: rateCtl,
		},
		estKind: estKind,
		netSeen: make(map[*lte.Trace]struct{}),
	}
	for _, f := range cfg.FrameRates {
		proc, err := st.s.procPower(power.PtileScheme, f)
		if err != nil {
			return nil, err
		}
		st.s.ptileProc = append(st.s.ptileProc, proc)
	}
	// The reusable viewport predictor. A config the predictor rejects is one
	// Viewport would reject on every call, so predictViewport's trace
	// fallback applies either way.
	if vp, vpErr := predict.NewViewportPredictor(cfg.Viewport); vpErr == nil {
		st.s.vp = vp
	}
	// One recycled plan per horizon slot; preallocated so held plan pointers
	// are never invalidated by growth.
	st.s.planBufs = make([]segmentPlan, cfg.Horizon+1)
	return st, nil
}

// Segments returns the number of segments in the stepper's catalogue.
func (st *Stepper) Segments() int { return len(st.s.cat.Content) }

// Config returns the stepper's session configuration.
func (st *Stepper) Config() Config { return st.s.cfg }

// NewState binds a viewer and a bandwidth trace into a fresh session state,
// seeding the bandwidth estimator with the trace's initial probe exactly as
// Run does.
func (st *Stepper) NewState(user *headtrace.Trace, net *lte.Trace) (*State, error) {
	state := new(State)
	if err := st.InitState(state, user, net); err != nil {
		return nil, err
	}
	return state, nil
}

// InitState initializes a caller-allocated State in place — the bulk form of
// NewState for engines that slab-allocate session state. state's previous
// contents are discarded. With the default harmonic estimator and a window
// that fits its inline storage, initialization performs no heap allocation
// beyond the viewer trace's once-per-trace XYSeries memo.
func (st *Stepper) InitState(state *State, user *headtrace.Trace, net *lte.Trace) error {
	if _, ok := st.netSeen[net]; !ok {
		if err := net.Validate(); err != nil {
			return err
		}
		st.netSeen[net] = struct{}{}
	}
	return st.bind(state, user, (*traceLink)(net))
}

// NewStateNetem is NewState over the packet-level network path instead of a
// segment-granularity trace: downloads go through pn's emulated droptail
// link, and estimators that implement predict.PacketObserver receive every
// delivered packet's timing before the segment-level Observe. pn carries
// the session's link state and must not be shared between states.
func (st *Stepper) NewStateNetem(user *headtrace.Trace, pn *netem.SessionNet) (*State, error) {
	if pn == nil {
		return nil, fmt.Errorf("sim: nil netem session path")
	}
	return st.NewStateLink(user, (*netLink)(pn))
}

// NewStateLink binds a viewer to any download path. Like a netem path, l
// must not be shared between states.
func (st *Stepper) NewStateLink(user *headtrace.Trace, l Link) (*State, error) {
	if l == nil {
		return nil, fmt.Errorf("sim: nil link")
	}
	state := new(State)
	if err := st.bind(state, user, l); err != nil {
		return nil, err
	}
	return state, nil
}

// bind initializes state for a viewer downloading over l, seeding the
// bandwidth estimator with the link's rate at t = 0 (the paper's startup
// phase downloads segment metadata).
func (st *Stepper) bind(state *State, user *headtrace.Trace, l Link) error {
	if user == nil || len(user.Samples) == 0 {
		return fmt.Errorf("sim: empty user trace")
	}
	*state = State{user: user, link: l}
	if st.estKind == predict.EstimatorHarmonic {
		if err := state.bwStore.Init(st.s.cfg.BandwidthWindow); err != nil {
			return err
		}
		state.bw = &state.bwStore
	} else {
		bw, err := predict.NewEstimator(st.estKind, st.s.cfg.BandwidthWindow)
		if err != nil {
			return err
		}
		state.bw = bw
	}
	state.xs, state.ys = user.XYSeries()
	return state.bw.Observe(l.RateAt(0))
}

// stepDelta is one computed step: everything apply writes into a State.
type stepDelta struct {
	info StepInfo
	// bufferAtRequest is the buffer level after the wait rule, when the
	// segment was requested.
	bufferAtRequest float64
	// used is the delivered version; zero when the segment was abandoned.
	used         abr.OptionMeta
	emergency    bool
	measuredRate float64
	energy       power.SegmentEnergy
	q0           float64
	hit          bool
	fromPtile    bool
	bd           qoe.Breakdown
	retries      int
	degradeSteps int
	abandoned    bool
	// bestQ and center are the plan's best offered quality and predicted
	// center, computed only when the step records segments.
	bestQ  float64
	center geom.Point
}

// Step advances the session by one segment: the wait rule, the controller
// decision, the download, and the energy/QoE accounting — one iteration of
// Run's loop, bit for bit. A Step that returns an error leaves the
// session's clocks, buffer, segment position, accounting and bandwidth
// estimate as they were before the call; only a packet-level link keeps the
// queue state its failed download left behind.
func (st *Stepper) Step(state *State) (StepInfo, error) {
	var d stepDelta
	if err := st.s.compute(state, &d); err != nil {
		return StepInfo{}, err
	}
	return st.s.apply(state, &d)
}

// compute evaluates segment state.nextSeg into d. It reads state and writes
// only d; the download advances the link's own state, never the session's.
func (s *session) compute(state *State, d *stepDelta) error {
	k := state.nextSeg
	if k >= len(s.cat.Content) {
		return fmt.Errorf("sim: session already streamed all %d segments", len(s.cat.Content))
	}

	// Wait rule: Δt = max(B − β, 0) before requesting segment k.
	tWall, buffer := state.tWall, state.buffer
	var wait float64
	if dt := buffer - s.cfg.BufferCapSec; dt > 0 {
		tWall += dt
		buffer -= dt
		wait = dt
	}

	rateEst, err := state.bw.Estimate()
	if err != nil {
		return err
	}

	predCenter := s.predictViewport(state, k, buffer)
	speedEst := s.recentSwitchingSpeed(state.user, k)

	seg, err := s.segmentPlan(k, 0, predCenter, speedEst)
	if err != nil {
		return err
	}

	// Only Ours runs the energy-minimizing MPC (Section IV-C). The Ptile
	// baseline is "similar to the Ctile approach" (Section V-A): it
	// requests the best quality the network affords, merely encoded as
	// one large tile.
	var decision abr.Decision
	switch s.cfg.Scheme {
	case SchemeOurs:
		horizon, err := s.horizonPlans(k, predCenter, speedEst, seg)
		if err != nil {
			return err
		}
		if s.cfg.UseQoEMPC {
			prevQ := state.prevQ0
			if !state.hasPrevQ0 {
				prevQ = bestQuality(seg.options)
			}
			decision, err = s.qoeMPC.Decide(buffer, rateEst, prevQ, horizon)
		} else {
			decision, err = s.mpc.Decide(buffer, rateEst, horizon)
		}
		if err != nil {
			return err
		}
	default:
		decision, err = s.rate.Decide(buffer, rateEst, seg.options)
		if err != nil {
			return err
		}
	}
	chosen := decision.Chosen
	// Version hysteresis (Ours only): Eq. 2 charges |ΔQ| between
	// consecutive segments, which the energy DP does not model. When
	// last segment's version is still feasible and within a small energy
	// margin of the fresh optimum, keep it to avoid quality flapping.
	if s.cfg.VersionHysteresis && s.cfg.Scheme == SchemeOurs && !s.cfg.UseQoEMPC &&
		state.hasPrev && !decision.Emergency {
		chosen = s.applyHysteresis(seg.options, chosen, rateEst, buffer, state.prevChoice)
	}

	// Download over the session's link, which reports the version it
	// delivered, how long that took, and the time failed attempts burned
	// before it.
	f := &s.fetch
	*f = Fetch{
		Segment: k, StartSec: tWall,
		Options: seg.options, Chosen: chosen,
		Ptile: seg.ptile, Center: predCenter,
	}
	if err := state.link.Download(f); err != nil {
		return err
	}
	spent := f.WastedSec + f.DownloadSec
	tWall += spent
	*d = stepDelta{
		info:            StepInfo{Segment: k, WaitSec: wait, DownloadSec: spent, WallSec: tWall, Done: k+1 >= len(s.cat.Content)},
		bufferAtRequest: buffer, emergency: decision.Emergency, retries: f.Retries,
	}
	if s.cfg.RecordSegments {
		d.bestQ, d.center = bestQuality(seg.options), predCenter
	}
	if f.Abandoned {
		// Playback skips the segment: the failed attempts drain the buffer,
		// and the missed deadline freezes the display for one segment on
		// top. Nothing was delivered, so nothing else is charged.
		d.info.StallSec = math.Max(f.WastedSec-buffer, 0) + s.cfg.SegmentSec
		d.info.BufferSec = math.Max(buffer-f.WastedSec, 0)
		d.bd = qoe.Breakdown{StallSec: d.info.StallSec}
		d.abandoned = true
		return nil
	}
	used := f.Used
	if (used.Option != chosen.Option) != (f.DegradeSteps > 0) {
		return fmt.Errorf("sim: segment %d: link delivered %+v for %+v at %d degrade steps", k, used.Option, chosen.Option, f.DegradeSteps)
	}
	measuredRate := used.SizeBits / f.DownloadSec
	if f.DownloadSec <= 0 {
		measuredRate = state.link.RateAt(tWall)
	}

	// Energy accounting (Eq. 1). Fallback segments decode with the
	// conventional pipeline.
	decSch := s.cfg.Scheme.decodeScheme()
	if seg.fallback {
		decSch = power.Ctile
	}
	e, err := s.pm.Segment(decSch, used.SizeBits, measuredRate, used.FrameRate, s.cfg.SegmentSec)
	if err != nil {
		return err
	}

	// QoE accounting: the user perceives the delivered quality only if the
	// downloaded high-quality region covers what they actually watch;
	// otherwise they see the low-quality background.
	q0, hit, err := s.perceivedQuality(state.user, k, seg, used)
	if err != nil {
		return err
	}
	prev := q0
	if state.hasPrevQ0 {
		prev = state.prevQ0
	}
	// The startup download (k = 0, empty buffer) is excluded from
	// rebuffering, as is standard in ABR evaluation.
	qoeBuffer := buffer
	if k == 0 {
		qoeBuffer = spent + 1
	}
	bd, err := qoe.Segment(qoe.SegmentInput{
		Q0: q0, PrevQ0: prev,
		SizeBits: used.SizeBits, RateBps: measuredRate,
		BufferSec: qoeBuffer, WastedSec: f.WastedSec,
	}, s.cfg.Weights)
	if err != nil {
		return err
	}

	d.info.StallSec = bd.StallSec
	d.info.BufferSec = math.Max(buffer-spent, 0) + s.cfg.SegmentSec
	d.used = used
	d.measuredRate = measuredRate
	d.energy = e
	d.q0, d.hit, d.bd = q0, hit, bd
	d.fromPtile = !seg.fallback && (s.cfg.Scheme == SchemePtile || s.cfg.Scheme == SchemeOurs)
	d.degradeSteps = f.DegradeSteps
	return nil
}

// apply writes a computed step into state; it is the only code that mutates
// a bound State. An abandoned segment delivered nothing: it feeds the
// estimator no sample and leaves the previous-choice memory alone, and its
// zero version adds nothing to the sums.
func (s *session) apply(state *State, d *stepDelta) (StepInfo, error) {
	if !d.abandoned {
		// The estimator goes first: it is the one write that can fail, and
		// it fails before anything else has changed. A packet-level
		// download's packet timing reaches delay-aware estimators ahead of
		// the segment-level sample.
		if po, ok := state.bw.(predict.PacketObserver); ok {
			for _, ps := range state.link.Packets() {
				po.ObservePacket(ps.SendSec, ps.RecvSec, ps.Bytes)
			}
		}
		if err := state.bw.Observe(d.measuredRate); err != nil {
			return StepInfo{}, err
		}
		state.prevChoice, state.hasPrev = d.used.Option, true
		state.prevQ0, state.hasPrevQ0 = d.q0, true
	}
	state.tWall, state.buffer = d.info.WallSec, d.info.BufferSec

	if d.emergency {
		state.emergencies++
	}
	state.energy.Tx += d.energy.Tx
	state.energy.Decode += d.energy.Decode
	state.energy.Render += d.energy.Render
	if d.hit {
		state.viewportHits++
	}
	state.acc.Add(d.bd)
	state.bits += d.used.SizeBits
	state.qualitySum += float64(d.used.Quality)
	state.frameRateSum += d.used.FrameRate
	if d.fromPtile {
		state.ptileSegments++
	}
	if s.cfg.RecordSegments {
		state.perSegment = append(state.perSegment, d.trace())
	}
	state.segments++
	state.nextSeg = d.info.Segment + 1
	return d.info, nil
}

// trace is the delta's SegmentTrace row.
func (d *stepDelta) trace() SegmentTrace {
	tr := SegmentTrace{
		StepInfo:             d.info,
		Quality:              d.used.Quality,
		FrameRate:            d.used.FrameRate,
		SizeBits:             d.used.SizeBits,
		ThroughputBps:        d.measuredRate,
		RequestBufferSec:     d.bufferAtRequest,
		PerceivedQuality:     d.q0,
		Q:                    d.bd.Q,
		BestPerceivedQuality: d.bestQ,
		EnergyMJ:             d.energy.Total(),
		TxEnergyMJ:           d.energy.Tx,
		DecodeEnergyMJ:       d.energy.Decode,
		FromPtile:            d.fromPtile,
		Emergency:            d.emergency,
		Retries:              d.retries,
		DegradeSteps:         d.degradeSteps,
		Abandoned:            d.abandoned,
		Center:               d.center,
	}
	if d.abandoned {
		tr.QoELoss = 1
		return tr
	}
	tr.Bytes = SegmentBytes(d.used.SizeBits)
	if d.bestQ > 0 {
		tr.QoELoss = (d.bestQ - d.q0) / d.bestQ
	}
	return tr
}

// Finish settles the session accounting into a Result. It may be called
// before the catalogue is exhausted (a truncated session), and the state
// may step on afterwards: the Result's PerSegment is capped at its length,
// so neither the state's later rows nor a caller's appends reach the other.
// It fails on a session that never streamed a segment.
func (st *Stepper) Finish(state *State) (*Result, error) {
	n := len(state.perSegment)
	res := &Result{
		Scheme:         st.s.cfg.Scheme,
		Phone:          st.s.cfg.Phone,
		VideoID:        st.s.cat.Video.ID,
		UserID:         state.user.UserID,
		Segments:       state.segments,
		Energy:         state.energy,
		BitsDownloaded: state.bits,
		MeanQuality:    state.qualitySum,
		MeanFrameRate:  state.frameRateSum,
		PtileSegments:  state.ptileSegments,
		ViewportHits:   state.viewportHits,
		Emergencies:    state.emergencies,
		PerSegment:     state.perSegment[:n:n],
	}
	summary, err := state.acc.Summary()
	if err != nil {
		return nil, err
	}
	res.QoE = summary
	res.MeanQuality /= float64(res.Segments)
	res.MeanFrameRate /= float64(res.Segments)
	return res, nil
}
