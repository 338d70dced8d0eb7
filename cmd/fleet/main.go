// Command fleet runs the event-driven fleet simulator: a population of
// -sessions concurrent viewers advanced on per-shard virtual clocks by
// O(shards) goroutines — session count and goroutine count are independent,
// which is what lets one process push 100k–1M sessions. Each shard owns a
// private planning workspace (sim.Stepper); session state is a compact
// sim.State allocated when a session joins, one per cohort: the sessions of
// a shard with the same viewer, trace and join time share it and step once.
//
// The engine executes exactly the code path of the blocking per-goroutine
// simulator (sim.Run), so results are bit-identical to it — the fleet
// package's differential tests pin that equivalence.
//
// With -metrics-addr an ops listener serves /metrics (fleet_* series),
// /debug/vars, /debug/pprof, and /healthz; the fleet counters there
// reconcile exactly with the final ledger. The run summary is written to
// stdout as one JSON line, ready for appending to a JSONL log.
//
// Usage:
//
//	fleet -sessions 100000 -shards 16 -duration 120 -metrics-addr 127.0.0.1:9361
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
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

// summary is the JSONL run record.
type summary struct {
	Sessions       int     `json:"sessions"`
	Shards         int     `json:"shards"`
	Workers        int     `json:"workers"`
	Scheme         string  `json:"scheme"`
	Video          int     `json:"video"`
	NetProfile     string  `json:"net_profile"`
	Seed           int64   `json:"seed"`
	DurationSec    float64 `json:"duration_sec"`
	Joined         int     `json:"joined"`
	Finished       int     `json:"finished"`
	Active         int     `json:"active"`
	Segments       int     `json:"segments"`
	Stalls         int     `json:"stalls"`
	StallSec       float64 `json:"stall_sec"`
	EnergyMJ       float64 `json:"energy_mj"`
	MeanQoE        float64 `json:"mean_qoe"`
	BitsDownloaded float64 `json:"bits_downloaded"`
	Events         int     `json:"events"`
	BatchLeaders   int     `json:"batch_leaders"`
	BatchReplays   int     `json:"batch_replays"`
	BatchFallbacks int     `json:"batch_fallbacks"`
	WallSec        float64 `json:"wall_sec"`
	EventsPerSec   float64 `json:"events_per_sec"`
	SegmentsPerSec float64 `json:"segments_per_sec"`
	GoroutinePeak  int     `json:"goroutine_peak"`
}

func main() {
	os.Exit(run())
}

// autoShards picks the default shard count: one shard per core, raised
// toward ~16k sessions per shard for huge fleets but never beyond 4× the
// core count. Finer shards keep each shard's advance working set
// cache-sized (and, on multi-core hosts, balance the per-advance barrier).
// fleet.New deals whole cohorts to shards, so extra shards add no cohort
// steps; oversharding a small fleet multiplies only the planning-scratch
// copies, and shards beyond the cohort count stay empty. Measured on the
// fleet bench before cohorts: 4×-oversharding was +30–45 % events/sec on a
// 1M-session fleet and −53 % on a 10k one — see EXPERIMENTS.md ("Fleet
// shard sizing").
func autoShards(procs, sessions int) int {
	s := sessions / 16384
	if s < procs {
		s = procs
	}
	if s > 4*procs {
		s = 4 * procs
	}
	return s
}

func run() int {
	var (
		sessions     = flag.Int("sessions", 10000, "concurrent viewer sessions to simulate")
		shards       = flag.Int("shards", 0, "independent event queues (bounds parallelism and planning-scratch copies); 0 sizes automatically from GOMAXPROCS and the session count")
		workers      = flag.Int("workers", 0, "goroutines advancing shards (0 = one per shard)")
		duration     = flag.Float64("duration", 0, "virtual seconds to simulate (0 = run every session to completion)")
		metricsAddr  = flag.String("metrics-addr", "", "ops listener address for /metrics, /debug/pprof, /debug/vars (empty disables)")
		videoID      = flag.Int("video", 2, "Table III video ID every session streams")
		users        = flag.Int("users", 14, "distinct viewers to generate (sessions cycle the eval pool)")
		seed         = flag.Int64("seed", 42, "random seed")
		scheme       = flag.String("scheme", "Ptile", "streaming scheme (Ctile, Ftile, Nontile, Ptile, Ours)")
		netProfile   = flag.String("net", "walking", "LTE mobility profile: stationary, walking, driving")
		tsdbEvery    = flag.Duration("tsdb-interval", time.Second, "in-process TSDB sampling period backing /debug/tsdb and the /slo burn-rate engine (0 disables both)")
		flightSample = flag.Int("flight-sample", 0, "flight recorder samples 1-in-N sessions; dumps surface at /debug/flight (0 disables)")
		logCfg       = obs.LogFlags(nil)
	)
	flag.Parse()

	logger, err := logCfg.NewLogger(os.Stderr)
	if err != nil {
		os.Stderr.WriteString("fleet: " + err.Error() + "\n")
		return 2
	}

	if *shards == 0 {
		*shards = autoShards(runtime.GOMAXPROCS(0), *sessions)
	}

	var sch sim.Scheme
	for _, s := range sim.Schemes() {
		if s.String() == *scheme {
			sch = s
		}
	}
	if sch == 0 {
		logger.Error("unknown scheme", "scheme", *scheme)
		return 2
	}
	var prof lte.Profile
	switch *netProfile {
	case "stationary":
		prof = lte.ProfileStationary
	case "walking":
		prof = lte.ProfileWalking
	case "driving":
		prof = lte.ProfileDriving
	default:
		logger.Error("unknown net profile", "net", *netProfile)
		return 2
	}

	p, err := video.ProfileByID(*videoID)
	if err != nil {
		logger.Error("unknown video profile", "video", *videoID, "err", err)
		return 2
	}
	logger.Info("preparing catalogue", "video", *videoID, "name", p.Name, "users", *users)
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
	ncfg, err := lte.ProfileConfig(prof)
	if err != nil {
		logger.Error("net profile config failed", "err", err)
		return 1
	}
	net, err := lte.Generate(600, ncfg, *seed)
	if err != nil {
		logger.Error("bandwidth trace generation failed", "err", err)
		return 1
	}

	cfg, err := sim.DefaultConfig(sch, power.Pixel3)
	if err != nil {
		logger.Error("sim config failed", "err", err)
		return 1
	}
	// Sessions cycle the eval viewers with staggered joins so the event
	// queues interleave instead of marching in lockstep; the 13 join times
	// and the eval viewers bound the cohorts the fleet steps.
	specs := make([]fleet.SessionSpec, *sessions)
	for i := range specs {
		specs[i] = fleet.SessionSpec{
			User:    prep.Eval[i%len(prep.Eval)],
			Net:     net,
			JoinSec: 0.25 * float64(i%13),
		}
	}

	reg := obs.NewRegistry()
	obs.RegisterGoMetrics(reg)
	var flight *obs.FlightRecorder
	if *flightSample > 0 {
		flight = obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: *flightSample, Registry: reg})
	}
	eng, err := fleet.New(fleet.Config{
		Catalog:  prep.Catalog,
		Sim:      cfg,
		Shards:   *shards,
		Workers:  *workers,
		Registry: reg,
		Flight:   flight,
	}, specs)
	if err != nil {
		logger.Error("engine construction failed", "err", err)
		return 1
	}

	// In-process TSDB plus QoE/energy SLO burn-rate objectives over the
	// fleet counters; a burning objective triggers flight dumps for every
	// sampled session.
	var db *obs.TSDB
	var slos *obs.SLOEngine
	if *tsdbEvery > 0 {
		db = obs.NewTSDB(reg, obs.TSDBConfig{Resolutions: []obs.Resolution{
			{Step: *tsdbEvery, Slots: 120},
			{Step: 10 * *tsdbEvery, Slots: 90},
			{Step: 60 * *tsdbEvery, Slots: 60},
		}})
		slos, err = obs.NewSLOEngine(db, reg, []obs.Objective{
			{
				Name:        "stall",
				Description: "Rebuffering seconds per completed segment.",
				Kind:        obs.SLOQuotient,
				Num:         []obs.Selector{obs.Sel("fleet_stall_seconds_total")},
				Den:         []obs.Selector{obs.Sel("fleet_segments_total")},
				Budget:      0.05,
				Windows:     obs.BurnWindows(*tsdbEvery),
			},
			{
				Name:        "energy",
				Description: "Modeled energy (mJ) per completed segment.",
				Kind:        obs.SLOQuotient,
				Num:         []obs.Selector{obs.Sel("fleet_energy_mj_total")},
				Den:         []obs.Selector{obs.Sel("fleet_segments_total")},
				Budget:      2000,
				Windows:     obs.BurnWindows(*tsdbEvery),
			},
		})
		if err != nil {
			logger.Error("slo engine invalid", "err", err)
			return 2
		}
		slos.OnBurn(func(name string) {
			logger.Warn("slo burning", "slo", name)
			if flight != nil {
				flight.TriggerAll("slo:" + name)
			}
		})
		db.Start()
		defer db.Stop()
	}

	if *metricsAddr != "" {
		mux := obs.NewOpsMux(reg)
		if db != nil {
			mux.Handle("/debug/tsdb", db.Handler())
			mux.Handle("/slo", slos.Handler())
		}
		if flight != nil {
			mux.Handle("/debug/flight", flight.Handler())
		}
		ops, err := obs.StartOpsMux(*metricsAddr, mux, logger)
		if err != nil {
			logger.Error("ops listener failed", "addr", *metricsAddr, "err", err)
			return 1
		}
		defer ops.Close()
	}

	logger.Info("fleet starting", "sessions", *sessions, "shards", *shards,
		"workers", *workers, "scheme", sch.String(), "duration_sec", *duration)
	start := time.Now()
	peak := runtime.NumGoroutine()
	// Advance in bounded virtual-time chunks so the published metrics (and
	// any scraper on -metrics-addr) track the run instead of jumping from
	// zero to final.
	const chunk = 5.0
	horizon := chunk
	for {
		next, ok := eng.NextEventTime()
		if !ok {
			break
		}
		if *duration > 0 && next > *duration {
			break
		}
		if *duration > 0 && horizon > *duration {
			horizon = *duration
		}
		if err := eng.Advance(horizon); err != nil {
			logger.Error("fleet advance failed", "err", err)
			return 1
		}
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
		horizon += chunk
	}
	wall := time.Since(start).Seconds()

	led := eng.Ledger()
	meanQoE := 0.0
	if led.Finished > 0 {
		meanQoE = led.QoESum / float64(led.Finished)
	}
	sum := summary{
		Sessions:       *sessions,
		Shards:         *shards,
		Workers:        *workers,
		Scheme:         sch.String(),
		Video:          *videoID,
		NetProfile:     *netProfile,
		Seed:           *seed,
		DurationSec:    *duration,
		Joined:         led.Joined,
		Finished:       led.Finished,
		Active:         led.Active,
		Segments:       led.Segments,
		Stalls:         led.Stalls,
		StallSec:       led.StallSec,
		EnergyMJ:       led.EnergyMJ,
		MeanQoE:        meanQoE,
		BitsDownloaded: led.Bits,
		Events:         led.Events,
		BatchLeaders:   led.BatchLeaders,
		BatchReplays:   led.BatchReplays,
		BatchFallbacks: led.BatchFallbacks,
		WallSec:        wall,
		EventsPerSec:   float64(led.Events) / wall,
		SegmentsPerSec: float64(led.Segments) / wall,
		GoroutinePeak:  peak,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(sum); err != nil {
		logger.Error("summary encode failed", "err", err)
		return 1
	}
	logger.Info("fleet done",
		"finished", led.Finished, "segments", led.Segments,
		"events", led.Events, "batch_replays", led.BatchReplays,
		"wall_sec", fmt.Sprintf("%.2f", wall),
		"events_per_sec", fmt.Sprintf("%.0f", sum.EventsPerSec),
		"segments_per_sec", fmt.Sprintf("%.0f", sum.SegmentsPerSec),
		"goroutine_peak", peak)
	return 0
}
