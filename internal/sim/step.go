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
//     bandwidth-estimator window, previous-choice memory, and the running
//     accounting sums. It is a few hundred bytes, so a million concurrent
//     sessions fit in one process.
//
// Run is itself implemented as NewStepper + NewState + a Step loop, so the
// blocking path and the event-driven path execute the same code; the
// fleet package's differential tests pin the two bit-identical.

// Stepper advances resumable sessions of one (catalogue, config) pair. It
// owns mutable planning scratch, so it must not be shared by concurrent
// goroutines — give each worker its own.
type Stepper struct {
	s       session
	estKind predict.EstimatorKind
	// xyCache shares the unwrapped head-trace series across sessions of the
	// same viewer trace (they are read-only), so a fleet replaying a trace
	// pool pays the XYSeries allocation once per trace, not per session.
	xyCache map[*headtrace.Trace]xySeries
	// netSeen remembers bandwidth traces that already passed Validate, so a
	// fleet joining many sessions onto a shared trace scans it once, not
	// once per join. Traces are immutable by contract after first use.
	netSeen map[*lte.Trace]struct{}
}

type xySeries struct{ xs, ys []float64 }

// State is the compact persistent state of one resumable session. Create
// with Stepper.NewState, advance with Stepper.Step, and settle the
// accounting with Stepper.Finish. A State is bound to the stepper's
// (catalogue, config); any stepper built from the same pair may advance it.
type State struct {
	user *headtrace.Trace
	net  *lte.Trace
	// pnet, when set (InitStateNetem), replaces net with the packet-level
	// emulated path: downloads resolve through the droptail-queue link and
	// the estimator additionally receives per-packet timing when it
	// implements predict.PacketObserver. A SessionNet carries mutable
	// cross-download queue state, so netem-backed sessions are excluded
	// from StepBatch fingerprint grouping (each session's link history is
	// unique).
	pnet *netem.SessionNet
	bw   predict.Estimator
	// bwStore is the in-struct home of the default harmonic estimator, so a
	// bulk-allocated State (fleet slabs) costs no separate estimator
	// allocation; bw points at it then. Because bwStore's window may alias
	// its own inline array, a State must not be copied by value after
	// InitState.
	bwStore predict.Bandwidth
	// xs, ys alias the stepper's shared per-trace series (read-only).
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

// Segment returns the index of the next segment Step would fetch.
func (st *State) Segment() int { return st.nextSeg }

// WallSec returns the session-local wall clock (seconds since the session
// started) after the last completed download.
func (st *State) WallSec() float64 { return st.tWall }

// BufferSec returns the current playback buffer level in seconds.
func (st *State) BufferSec() float64 { return st.buffer }

// Segments returns the number of segments streamed so far.
func (st *State) Segments() int { return st.segments }

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
	Segment int
	// WaitSec is the pre-request pacing wait (buffer above β).
	WaitSec float64
	// DownloadSec is the download duration against the bandwidth trace.
	DownloadSec float64
	// StallSec is the rebuffering charged to this segment.
	StallSec float64
	// WallSec is the session-local wall clock when the download completed.
	WallSec float64
	// BufferSec is the buffer level after the segment was appended.
	BufferSec float64
	// Done reports that no segments remain: the session is complete and
	// ready for Finish.
	Done bool
}

// NewStepper validates the configuration against the catalogue and builds
// the shared session runtime.
func NewStepper(cat *Catalog, cfg Config) (*Stepper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cat == nil || len(cat.Content) == 0 {
		return nil, fmt.Errorf("sim: empty catalogue")
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

	// Fetch the catalogue's shared precomputed size tables; when disabled
	// (determinism tests) the planners fall back to computing every size
	// directly, which is the bit-identical serial reference path.
	var tab *planTables
	if !disablePlanTables {
		tab, err = cat.tablesFor(&cfg)
		if err != nil {
			return nil, err
		}
	}

	st := &Stepper{
		s: session{
			cfg: cfg, cat: cat,
			pm: pm, mpc: mpc, qoeMPC: qoeMPC, rate: rateCtl,
			tab: tab, fm: cfg.Encoder.FrameRate,
		},
		estKind: estKind,
		xyCache: make(map[*headtrace.Trace]xySeries),
		netSeen: make(map[*lte.Trace]struct{}),
	}
	for _, f := range cfg.FrameRates {
		proc, err := st.s.procPower(power.PtileScheme, f)
		if err != nil {
			return nil, err
		}
		st.s.ptileProc = append(st.s.ptileProc, proc)
	}
	// Shared FoV coverage LUT (nil on grids too large for a TileSet — the
	// planners then keep the direct FoVTiles paths) and the reusable
	// viewport predictor. A config the predictor rejects is one Viewport
	// would reject on every call, so predictViewport's trace fallback applies
	// either way.
	st.s.lut = geom.FoVLUTFor(cfg.Grid, cfg.FoVDeg, cfg.FoVDeg)
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

// xySeriesFor returns the shared unwrapped head series for a viewer trace.
func (st *Stepper) xySeriesFor(user *headtrace.Trace) xySeries {
	if xy, ok := st.xyCache[user]; ok {
		return xy
	}
	xs, ys := user.XYSeries()
	xy := xySeries{xs: xs, ys: ys}
	st.xyCache[user] = xy
	return xy
}

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
// beyond the once-per-trace series cache.
func (st *Stepper) InitState(state *State, user *headtrace.Trace, net *lte.Trace) error {
	if user == nil || len(user.Samples) == 0 {
		return fmt.Errorf("sim: empty user trace")
	}
	if _, ok := st.netSeen[net]; !ok {
		if err := net.Validate(); err != nil {
			return err
		}
		st.netSeen[net] = struct{}{}
	}
	*state = State{user: user, net: net}
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
	xy := st.xySeriesFor(user)
	state.xs, state.ys = xy.xs, xy.ys
	// Seed the bandwidth estimator with an initial probe (the paper's
	// startup phase downloads segment metadata).
	return state.bw.Observe(net.At(0))
}

// NewStateNetem is NewState over the packet-level network path instead of a
// segment-granularity trace: downloads go through pn's emulated droptail
// link, and estimators that implement predict.PacketObserver receive every
// delivered packet's timing before the segment-level Observe. pn carries
// the session's link state and must not be shared between states.
func (st *Stepper) NewStateNetem(user *headtrace.Trace, pn *netem.SessionNet) (*State, error) {
	state := new(State)
	if err := st.InitStateNetem(state, user, pn); err != nil {
		return nil, err
	}
	return state, nil
}

// InitStateNetem initializes a caller-allocated State in place over the
// packet-level path — the bulk form of NewStateNetem.
func (st *Stepper) InitStateNetem(state *State, user *headtrace.Trace, pn *netem.SessionNet) error {
	if user == nil || len(user.Samples) == 0 {
		return fmt.Errorf("sim: empty user trace")
	}
	if pn == nil {
		return fmt.Errorf("sim: nil netem session path")
	}
	*state = State{user: user, pnet: pn}
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
	xy := st.xySeriesFor(user)
	state.xs, state.ys = xy.xs, xy.ys
	// Seed with the link's advertised rate at t=0, mirroring InitState's
	// net.At(0) probe.
	return state.bw.Observe(pn.RateAt(0))
}

// attach points the shared session workspace at one session's state.
func (s *session) attach(state *State) {
	s.user, s.net, s.pnet, s.bw = state.user, state.net, state.pnet, state.bw
	s.xs, s.ys = state.xs, state.ys
	s.tWall, s.buffer = state.tWall, state.buffer
	s.prevQ0, s.hasPrevQ0 = state.prevQ0, state.hasPrevQ0
	s.prevChoice, s.hasPrev = state.prevChoice, state.hasPrev
}

// detach writes the advanced clocks back and drops the per-session aliases.
func (s *session) detach(state *State) {
	state.tWall, state.buffer = s.tWall, s.buffer
	state.prevQ0, state.hasPrevQ0 = s.prevQ0, s.hasPrevQ0
	state.prevChoice, state.hasPrev = s.prevChoice, s.hasPrev
	s.user, s.net, s.pnet, s.bw = nil, nil, nil, nil
	s.xs, s.ys = nil, nil
}

// Step advances the session by one segment: the wait rule, the controller
// decision, the download, and the energy/QoE accounting — one iteration of
// Run's loop, bit for bit.
func (st *Stepper) Step(state *State) (StepInfo, error) {
	if state.nextSeg >= len(st.s.cat.Content) {
		return StepInfo{}, fmt.Errorf("sim: session already streamed all %d segments", len(st.s.cat.Content))
	}
	s := &st.s
	s.attach(state)
	info, err := s.step(state)
	s.detach(state)
	return info, err
}

// step is Run's loop body for segment k = state.nextSeg.
func (s *session) step(state *State) (StepInfo, error) {
	k := state.nextSeg
	info := StepInfo{Segment: k}

	// Wait rule: Δt = max(B − β, 0) before requesting segment k.
	if dt := s.buffer - s.cfg.BufferCapSec; dt > 0 {
		s.tWall += dt
		s.buffer -= dt
		info.WaitSec = dt
	}

	rateEst, err := s.bw.Estimate()
	if err != nil {
		return info, err
	}

	predCenter := s.predictViewport(k)
	speedEst := s.recentSwitchingSpeed(k)

	seg, err := s.segmentPlan(k, 0, predCenter, speedEst)
	if err != nil {
		return info, err
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
			return info, err
		}
		if s.cfg.UseQoEMPC {
			prevQ := s.prevQ0
			if !s.hasPrevQ0 {
				prevQ = bestQuality(seg.options)
			}
			decision, err = s.qoeMPC.Decide(s.buffer, rateEst, prevQ, horizon)
		} else {
			decision, err = s.mpc.Decide(s.buffer, rateEst, horizon)
		}
		if err != nil {
			return info, err
		}
	default:
		decision, err = s.rate.Decide(s.buffer, rateEst, seg.options)
		if err != nil {
			return info, err
		}
	}
	if decision.Emergency {
		state.emergencies++
	}
	chosen := decision.Chosen
	// Version hysteresis (Ours only): Eq. 2 charges |ΔQ| between
	// consecutive segments, which the energy DP does not model. When
	// last segment's version is still feasible and within a small energy
	// margin of the fresh optimum, keep it to avoid quality flapping.
	if s.cfg.VersionHysteresis && s.cfg.Scheme == SchemeOurs && !s.cfg.UseQoEMPC &&
		s.hasPrev && !decision.Emergency {
		chosen = s.applyHysteresis(seg.options, chosen, rateEst)
	}
	s.prevChoice = chosen.Option
	s.hasPrev = true

	// Download against the bandwidth model. The packet-level path (netem)
	// resolves the transfer through the emulated droptail link and feeds
	// packet timing to delay-aware estimators; the segment-level path
	// integrates the trace, validated when the state was bound (InitState).
	bufferAtRequest := s.buffer
	var dl float64
	if s.pnet != nil {
		dl, err = s.pnet.Download(chosen.SizeBits, s.tWall)
		if err != nil {
			return info, err
		}
		if po, ok := s.bw.(predict.PacketObserver); ok {
			for _, ps := range s.pnet.Packets() {
				po.ObservePacket(ps.SendSec, ps.RecvSec, ps.Bytes)
			}
		}
	} else {
		dl, err = s.net.DownloadTimeTrusted(chosen.SizeBits, s.tWall)
		if err != nil {
			return info, err
		}
	}
	s.tWall += dl
	measuredRate := chosen.SizeBits / dl
	if dl <= 0 {
		if s.pnet != nil {
			measuredRate = s.pnet.RateAt(s.tWall)
		} else {
			measuredRate = s.net.At(s.tWall)
		}
	}
	if err := s.bw.Observe(measuredRate); err != nil {
		return info, err
	}
	s.buffer = math.Max(s.buffer-dl, 0) + s.cfg.SegmentSec

	// Energy accounting (Eq. 1). Fallback segments decode with the
	// conventional pipeline.
	decSch := s.cfg.Scheme.decodeScheme()
	if seg.fallback {
		decSch = power.Ctile
	}
	e, err := s.pm.Segment(decSch, chosen.SizeBits, measuredRate, chosen.FrameRate, s.cfg.SegmentSec)
	if err != nil {
		return info, err
	}
	state.energy.Tx += e.Tx
	state.energy.Decode += e.Decode
	state.energy.Render += e.Render

	// QoE accounting: the user perceives the chosen quality only if the
	// downloaded high-quality region covers what they actually watch;
	// otherwise they see the low-quality background.
	q0, hit, err := s.perceivedQuality(k, seg, chosen)
	if err != nil {
		return info, err
	}
	if hit {
		state.viewportHits++
	}
	prev := q0
	if s.hasPrevQ0 {
		prev = s.prevQ0
	}
	// The startup download (k = 0, empty buffer) is excluded from
	// rebuffering, as is standard in ABR evaluation.
	qoeBuffer := bufferAtRequest
	if k == 0 {
		qoeBuffer = dl + 1
	}
	bd, err := qoe.Segment(qoe.SegmentInput{
		Q0: q0, PrevQ0: prev,
		SizeBits: chosen.SizeBits, RateBps: measuredRate,
		BufferSec: qoeBuffer,
	}, s.cfg.Weights)
	if err != nil {
		return info, err
	}
	state.acc.Add(bd)
	s.prevQ0 = q0
	s.hasPrevQ0 = true

	state.bits += chosen.SizeBits
	state.qualitySum += float64(chosen.Quality)
	state.frameRateSum += chosen.FrameRate
	fromPtile := !seg.fallback && (s.cfg.Scheme == SchemePtile || s.cfg.Scheme == SchemeOurs)
	if fromPtile {
		state.ptileSegments++
	}
	if s.cfg.RecordSegments {
		state.perSegment = append(state.perSegment, SegmentTrace{
			Segment:       k,
			Quality:       chosen.Quality,
			FrameRate:     chosen.FrameRate,
			SizeBits:      chosen.SizeBits,
			ThroughputBps: measuredRate,
			BufferSec:     bufferAtRequest,
			Q0:            q0,
			Q:             bd.Q,
			StallSec:      bd.StallSec,
			EnergyMJ:      e.Total(),
			FromPtile:     fromPtile,
			Emergency:     decision.Emergency,
		})
	}
	state.segments++
	state.nextSeg = k + 1

	info.DownloadSec = dl
	info.StallSec = bd.StallSec
	info.WallSec = s.tWall
	info.BufferSec = s.buffer
	info.Done = state.nextSeg >= len(s.cat.Content)

	// Batch leaders capture the step's computed values so decision-identical
	// followers replay the same mutations without re-planning (batch.go).
	if s.rec != nil {
		*s.rec = stepDelta{
			info:         info,
			chosen:       chosen,
			emergency:    decision.Emergency,
			downloadSec:  dl,
			measuredRate: measuredRate,
			energy:       e,
			q0:           q0,
			hit:          hit,
			fromPtile:    fromPtile,
			bd:           bd,
		}
		if s.cfg.RecordSegments {
			s.rec.trace = state.perSegment[len(state.perSegment)-1]
		}
	}
	return info, nil
}

// Finish settles the session accounting into a Result. It may be called
// before the catalogue is exhausted (a truncated session); it fails on a
// session that never streamed a segment.
func (st *Stepper) Finish(state *State) (*Result, error) {
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
		PerSegment:     state.perSegment,
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
