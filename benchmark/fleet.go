package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ptile360/internal/fleet"
	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/obs"
	"ptile360/internal/power"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// fleetChunkSec is the virtual time one Advance call covers, as in
// cmd/fleet.
const fleetChunkSec = 5.0

// fleetSpec sizes one fleet workload. The engine is configured as cmd/fleet
// configures it by default: shards from autoShards, one worker per shard,
// viewport ticks every 0.5 s.
type fleetSpec struct {
	videoID  int
	sessions int
	// users generated for the video; trainUsers of them build the
	// catalogue, the rest are the viewers sessions cycle.
	users, trainUsers int
	// traces LTE traces, cycling stationary/walking/driving when more than
	// one; with one, it is a walking trace as in cmd/fleet.
	traces int
	// uniformJoins draws join times uniformly in [0, joinSpanSec) and
	// random (viewer, trace) pairs; otherwise joins follow cmd/fleet's
	// 0.25·(i mod 13) stagger and sessions cycle the viewers.
	uniformJoins bool
	joinSpanSec  float64
	// observed adds the TSDB and the two fleet SLOs, sampled by the TSDB's
	// own goroutine once per wall-clock second, as in cmd/fleet.
	observed bool
}

// autoShards is cmd/fleet's default shard count: one shard per core, raised
// toward 16384 sessions per shard but never beyond 4× the core count.
func autoShards(procs, sessions int) int {
	return min(max(sessions/16384, procs), 4*procs)
}

func setupFleetShared(cfg config, ph phases) (instance, error) {
	s := fleetSpec{videoID: 2, sessions: 20000, users: 14, trainUsers: 11, traces: 1, observed: true}
	if cfg.smoke {
		s.sessions = 500
	}
	return setupFleet(cfg, ph, s)
}

func setupFleetDiverse(cfg config, ph phases) (instance, error) {
	s := fleetSpec{videoID: 2, sessions: 3000, users: 120, trainUsers: 100, traces: 512, uniformJoins: true, joinSpanSec: 30}
	if cfg.smoke {
		s.sessions, s.users, s.trainUsers, s.traces = 500, 40, 30, 32
	}
	return setupFleet(cfg, ph, s)
}

type fleetInstance struct {
	spec   fleetSpec
	smoke  bool
	shards int
	cat    *sim.Catalog
	sim    sim.Config
	specs  []fleet.SessionSpec
	// The last round's ledger and sampled session results, for the checks.
	ledger  *fleet.Ledger
	sampled map[int]*sim.Result
	// tsdb is the last traced round's TSDB, for the sampling replay.
	tsdb *obs.TSDB
}

func setupFleet(cfg config, ph phases, s fleetSpec) (instance, error) {
	p, err := video.ProfileByID(s.videoID)
	if err != nil {
		return nil, err
	}
	var train, eval []*headtrace.Trace
	err = ph.time("headtrace.generate_s", func() error {
		gcfg := headtrace.DefaultGeneratorConfig()
		gcfg.NumUsers = s.users
		ds, err := headtrace.Generate(p, gcfg, cfg.seed)
		if err != nil {
			return err
		}
		train, eval, err = ds.SplitTrainEval(s.trainUsers, cfg.seed+1)
		return err
	})
	if err != nil {
		return nil, err
	}
	simCfg, err := sim.DefaultConfig(sim.SchemeOurs, power.Pixel3)
	if err != nil {
		return nil, err
	}
	var cat *sim.Catalog
	err = ph.time("sim.build_catalog_s", func() error {
		ccfg, err := sim.DefaultCatalogConfig()
		if err != nil {
			return err
		}
		ccfg.Seed = cfg.seed
		if cat, err = sim.BuildCatalog(p, train, ccfg); err != nil {
			return err
		}
		// Build the catalogue's plan tables and the FoV LUT now, so every
		// round starts from the same warm catalogue.
		_, err = sim.NewStepper(cat, simCfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	var nets []*lte.Trace
	err = ph.time("lte.generate_s", func() error {
		var err error
		nets, err = lteTraces(s.traces, cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}

	specs := make([]fleet.SessionSpec, s.sessions)
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := range specs {
		if s.uniformJoins {
			specs[i] = fleet.SessionSpec{
				User:    eval[rng.Intn(len(eval))],
				Net:     nets[rng.Intn(len(nets))],
				JoinSec: rng.Float64() * s.joinSpanSec,
			}
			continue
		}
		specs[i] = fleet.SessionSpec{User: eval[i%len(eval)], Net: nets[i%len(nets)], JoinSec: 0.25 * float64(i%13)}
	}
	shards := autoShards(runtime.GOMAXPROCS(0), s.sessions)
	return &fleetInstance{spec: s, smoke: cfg.smoke, shards: shards, cat: cat, sim: simCfg, specs: specs}, nil
}

// lteTraces generates n 600-second LTE traces; one is a walking trace, more
// cycle the three mobility profiles.
func lteTraces(n int, seed int64) ([]*lte.Trace, error) {
	profiles := []lte.Profile{lte.ProfileStationary, lte.ProfileWalking, lte.ProfileDriving}
	if n == 1 {
		profiles = []lte.Profile{lte.ProfileWalking}
	}
	out := make([]*lte.Trace, n)
	for i := range out {
		ncfg, err := lte.ProfileConfig(profiles[i%len(profiles)])
		if err != nil {
			return nil, err
		}
		if out[i], err = lte.Generate(600, ncfg, seed*1000003+int64(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// newFleetTSDB mirrors cmd/fleet's default observability: the TSDB over the
// fleet registry, sampled every second, and its stall and energy SLOs.
func newFleetTSDB(reg *obs.Registry) (*obs.TSDB, error) {
	step := time.Second
	db := obs.NewTSDB(reg, obs.TSDBConfig{Resolutions: []obs.Resolution{
		{Step: step, Slots: 120},
		{Step: 10 * step, Slots: 90},
		{Step: 60 * step, Slots: 60},
	}})
	_, err := obs.NewSLOEngine(db, reg, []obs.Objective{
		{
			Name:    "stall",
			Kind:    obs.SLOQuotient,
			Num:     []obs.Selector{obs.Sel("fleet_stall_seconds_total")},
			Den:     []obs.Selector{obs.Sel("fleet_segments_total")},
			Budget:  0.05,
			Windows: obs.BurnWindows(step),
		},
		{
			Name:    "energy",
			Kind:    obs.SLOQuotient,
			Num:     []obs.Selector{obs.Sel("fleet_energy_mj_total")},
			Den:     []obs.Selector{obs.Sel("fleet_segments_total")},
			Budget:  2000,
			Windows: obs.BurnWindows(step),
		},
	})
	return db, err
}

// round runs the whole fleet to completion on a fresh engine, advancing in
// cmd/fleet's 5-second chunks while the TSDB, when on, samples in the
// background. The host probe runs between chunks.
func (f *fleetInstance) round(ctx context.Context, tr *tracer, pc *pacer) (roundResult, error) {
	var res roundResult
	roundStart := time.Now()
	reg := obs.NewRegistry()
	obs.RegisterGoMetrics(reg)
	eng, err := fleet.New(fleet.Config{
		Catalog:           f.cat,
		Sim:               f.sim,
		Shards:            f.shards,
		ViewportUpdateSec: 0.5,
		Registry:          reg,
	}, f.specs)
	if err != nil {
		return res, err
	}
	newEnd := time.Now()
	var db *obs.TSDB
	if f.spec.observed {
		if db, err = newFleetTSDB(reg); err != nil {
			return res, err
		}
		db.Start()
		defer db.Stop()
	}

	var advance time.Duration
	for horizon := fleetChunkSec; ; horizon += fleetChunkSec {
		if _, ok := eng.NextEventTime(); !ok || ctx.Err() != nil {
			break
		}
		start := time.Now()
		if err := eng.Advance(horizon); err != nil {
			return res, err
		}
		end := time.Now()
		advance += end.Sub(start)
		if tr != nil {
			tr.record("fleet.advance", start, end)
		}
		pc.cut()
	}
	if db != nil {
		db.Stop()
	}
	if tr != nil {
		tr.record("fleet.round", roundStart, time.Now())
		f.tsdb = db
	}

	led := eng.Ledger()
	res.attempted = len(f.specs)
	res.failed = len(f.specs) - led.Finished
	res.segments = led.Segments
	res.sessions = led.Finished
	res.energyMJ = led.EnergyMJ
	res.qoeSum = led.QoESum
	res.stallSec = led.StallSec
	res.playSec = float64(led.Segments) * f.cat.SegmentSec
	if tr != nil {
		res.layer = map[string]float64{
			"fleet.new_s":              newEnd.Sub(roundStart).Seconds(),
			"fleet.events_per_seg":     perUnit(float64(led.Events), led.Segments),
			"fleet.advance_ns_per_seg": perUnit(float64(advance.Nanoseconds()), led.Segments),
		}
	}
	// Keep only what the checks read, so the engine is garbage before the
	// next round starts.
	all := eng.Results()
	f.ledger = &led
	f.sampled = map[int]*sim.Result{}
	for _, i := range sampleIndices(len(f.specs), 1000, 32) {
		f.sampled[i] = all[i]
	}
	return res, nil
}

// check verifies the last round: every session joined and finished, the
// batch planner's steps add up, and a sample of sessions equals sim.Run
// bit for bit.
func (f *fleetInstance) check(rep *report) {
	if f.ledger == nil {
		rep.fail("no fleet round ran")
		return
	}
	led := *f.ledger
	n := len(f.specs)
	if led.Joined != n || led.Finished != n {
		rep.fail("fleet: joined %d, finished %d, want %d", led.Joined, led.Finished, n)
	}
	if got := led.BatchLeaders + led.BatchReplays + led.BatchFallbacks; got != led.Segments {
		rep.fail("fleet: leaders+replays+fallbacks %d != segments %d", got, led.Segments)
	}
	rep.add("fleet.batch_leader_ratio", perUnit(float64(led.BatchLeaders), led.BatchLeaders+led.BatchReplays+led.BatchFallbacks), "ratio", led.Segments)
	for _, i := range sampleIndices(n, 1000, 32) {
		got := f.sampled[i]
		if got == nil {
			rep.fail("fleet: session %d has no result", i)
			continue
		}
		want, err := sim.Run(f.cat, f.specs[i].User, f.specs[i].Net, f.sim)
		if err != nil {
			rep.fail("fleet: sim.Run session %d: %v", i, err)
			continue
		}
		if math.Float64bits(got.Energy.Total()) != math.Float64bits(want.Energy.Total()) ||
			math.Float64bits(got.QoE.MeanQ) != math.Float64bits(want.QoE.MeanQ) ||
			math.Float64bits(got.QoE.StallSec) != math.Float64bits(want.QoE.StallSec) {
			rep.fail("fleet: session %d differs from sim.Run: energy %v/%v, QoE %v/%v, stall %v/%v", i,
				got.Energy.Total(), want.Energy.Total(), got.QoE.MeanQ, want.QoE.MeanQ, got.QoE.StallSec, want.QoE.StallSec)
		}
	}
}

// tsdbSamples is how many TSDB samples the sampling replay times.
const tsdbSamples = 64

func (f *fleetInstance) layers(rep *report, traced []roundResult, tr *tracer) error {
	addLayerMedians(rep, traced)

	// The event heap at this workload's per-shard depth: two pending events
	// (the next segment and the viewport tick) per session.
	ops := heapOps
	if f.smoke {
		ops /= 64
	}
	rep.add("fleet.heap_push_pop_ns", heapPushPopNS(2*len(f.specs)/f.shards, ops), "ns", ops)

	// TSDB.Sample, SLO evaluation included, replayed on the registry of the
	// last traced round's finished fleet.
	if f.tsdb != nil {
		var us []float64
		base := time.Now()
		for i := 1; i <= tsdbSamples; i++ {
			start := time.Now()
			f.tsdb.Sample(base.Add(time.Duration(i) * time.Second))
			end := time.Now()
			tr.record("obs.tsdb_sample", start, end)
			us = append(us, float64(end.Sub(start).Nanoseconds())/1e3)
		}
		rep.add("obs.tsdb_sample_us", median(us), "us", len(us))
	}

	sessions := sampleIndices(len(f.specs), 64, 1)
	if len(sessions) > maxReplaySessions {
		sessions = sessions[:maxReplaySessions]
	}
	steps, err := stepTimes(f.cat, f.sim, len(sessions), func(st *sim.Stepper, i int) (*sim.State, error) {
		sp := f.specs[sessions[i]]
		return st.NewState(sp.User, sp.Net)
	})
	if err != nil {
		return err
	}
	return addStepMetrics(rep, steps)
}

func (f *fleetInstance) close() {}

// heapOps is how many pop+push pairs the heap probe times.
const heapOps = 1 << 20

// heapPushPopNS times ops pops, each followed by a push, on a fleet.Heap
// holding depth events whose timestamps advance like a fleet's, in ns per
// pair.
func heapPushPopNS(depth, ops int) float64 {
	if depth < 1 {
		depth = 1
	}
	rng := rand.New(rand.NewSource(1))
	var h fleet.Heap
	h.Reserve(depth)
	for i := 0; i < depth; i++ {
		h.Push(rng.Float64()*10, fleet.KindSegmentComplete, i)
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		ev, _ := h.Pop()
		h.Push(ev.Time+0.5+rng.Float64(), ev.Kind, ev.Session)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}
