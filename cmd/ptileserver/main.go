// Command ptileserver runs the HTTP Ptile streaming server: it prepares the
// catalogues (head-movement generation, Ptile construction) for the selected
// videos and serves manifests plus synthesized segments behind the
// overload-protection chain (admission control, per-client rate limiting,
// circuit breaking). SIGINT/SIGTERM trigger a graceful drain: the server
// stops admitting, finishes in-flight requests under -drain-timeout, and
// logs the per-endpoint outcome ledger before exiting.
//
// With -metrics-addr a second, unprotected ops listener serves /metrics
// (Prometheus text), /debug/vars (expvar), /debug/pprof, /debug/spans/*,
// and /healthz.
//
// Usage:
//
//	ptileserver -addr :8360 -videos 2,8 -metrics-addr 127.0.0.1:9360
package main

import (
	"context"
	"flag"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ptile360/internal/faultinject"
	"ptile360/internal/headtrace"
	"ptile360/internal/httpstream"
	"ptile360/internal/netem"
	"ptile360/internal/obs"
	"ptile360/internal/ptilelive"
	"ptile360/internal/resilience"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr        = flag.String("addr", ":8360", "listen address")
		metricsAddr = flag.String("metrics-addr", "", "ops listener address for /metrics, /debug/pprof, /debug/vars (empty disables)")
		videos      = flag.String("videos", "2,8", "comma-separated Table III video IDs to serve")
		users       = flag.Int("users", 48, "viewers per video (40 train Ptiles)")
		seed        = flag.Int64("seed", 42, "random seed")
		chaos       = flag.String("chaos", "off", "server-side fault profile: off, flaky, lossy, slow, chaos")
		chaosSeed   = flag.Int64("chaos-seed", 1, "seed for the fault injector's reproducible schedule")
		logCfg      = obs.LogFlags(nil)

		def          = resilience.DefaultConfig()
		maxInFlight  = flag.Int("max-inflight", def.MaxInFlight, "admission limit: concurrently served requests")
		maxQueue     = flag.Int("max-queue", def.MaxQueue, "admission queue slots behind the in-flight limit")
		queueWait    = flag.Duration("queue-wait", def.QueueTimeout, "longest a queued request may wait before a 503")
		handlerLimit = flag.Duration("handler-timeout", def.HandlerTimeout, "cooperative per-request timeout (0 disables)")
		retryAfter   = flag.Duration("retry-after", def.RetryAfter, "Retry-After hint on shed responses")
		rate         = flag.Float64("rate", 0, "per-client requests/second (0 disables rate limiting)")
		burst        = flag.Float64("burst", 50, "per-client token-bucket burst (with -rate)")
		drainWait    = flag.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on shutdown")
		rebuildEvery = flag.Duration("rebuild-interval", 0, "regenerate online Ptiles from served viewport reports and hot-swap the catalogue on this period (0 disables)")
		paceMbps     = flag.Float64("pace-mbps", 0, "paced sender: throttle segment bodies to this rate in Mbit/s instead of bursting (0 disables)")
		tsdbEvery    = flag.Duration("tsdb-interval", time.Second, "in-process TSDB sampling period backing /debug/tsdb and the /slo burn-rate engine (0 disables both)")
		flightSample = flag.Int("flight-sample", 16, "flight recorder samples 1-in-N sessions; dumps surface at /debug/flight (0 disables)")
		spanRing     = flag.Int("span-ring", 0, "per-tracer recent-span ring size (0 keeps the default)")
	)
	flag.Parse()

	logger, err := logCfg.NewLogger(os.Stderr)
	if err != nil {
		// No logger yet to report the bad logging flags through.
		os.Stderr.WriteString("ptileserver: " + err.Error() + "\n")
		return 2
	}

	reg := obs.Default()
	obs.RegisterGoMetrics(reg)

	catalogs := make(map[int]*sim.Catalog)
	for _, field := range strings.Split(*videos, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			logger.Error("bad video id", "video", field)
			return 2
		}
		p, err := video.ProfileByID(id)
		if err != nil {
			logger.Error("unknown video profile", "video", id, "err", err)
			return 2
		}
		logger.Info("preparing video", "video", id, "name", p.Name, "users", *users)
		gcfg := headtrace.DefaultGeneratorConfig()
		gcfg.NumUsers = *users
		ds, err := headtrace.Generate(p, gcfg, *seed)
		if err != nil {
			logger.Error("head-trace generation failed", "video", id, "err", err)
			return 1
		}
		prep, err := sim.PrepareVideo(ds, *users*5/6, *seed, 0)
		if err != nil {
			logger.Error("video preparation failed", "video", id, "err", err)
			return 1
		}
		catalogs[id] = prep.Catalog
	}

	srv, err := httpstream.NewServer(catalogs, video.DefaultEncoderConfig(), []float64{30, 27, 24, 21})
	if err != nil {
		logger.Error("server construction failed", "err", err)
		return 1
	}
	srv.Instrument(reg, logger)

	if *paceMbps > 0 {
		if err := srv.SetPacing(*paceMbps*1e6, netem.NewPacerMetrics(reg)); err != nil {
			logger.Error("bad pacing rate", "pace_mbps", *paceMbps, "err", err)
			return 2
		}
		logger.Info("paced sender active", "pace_mbps", *paceMbps)
	}

	// The online Ptile pipeline regenerates Ptiles from the viewport centers
	// of served segments and hot-swaps the catalogue on a timer. The loop
	// goroutine is joined on shutdown so the drain is clean.
	var rebuildWG sync.WaitGroup
	rebuildCtx, stopRebuild := context.WithCancel(context.Background())
	defer stopRebuild()
	var pipeline *ptilelive.Pipeline
	if *rebuildEvery > 0 {
		lcfg, err := ptilelive.DefaultConfig()
		if err != nil {
			logger.Error("online pipeline config invalid", "err", err)
			return 1
		}
		lcfg.Registry = reg
		pipeline, err = ptilelive.New(lcfg)
		if err != nil {
			logger.Error("online pipeline construction failed", "err", err)
			return 1
		}
		srv.SetViewportSink(pipeline.IngestTelemetry)
		rebuildWG.Add(1)
		go func() {
			defer rebuildWG.Done()
			err := pipeline.Loop(rebuildCtx, *rebuildEvery, func(videoID int, b ptilelive.Build) {
				base, ok := catalogs[videoID]
				if !ok {
					return
				}
				v, err := srv.SwapCatalog(pipeline.ApplyToCatalog(base))
				if err != nil {
					logger.Error("online catalogue refused", "video", videoID, "err", err)
					return
				}
				logger.Info("online catalogue published", "video", videoID,
					"build_version", b.Version, "catalog_version", v, "ptiles", b.Ptiles())
			}, func(videoID int, err error) {
				logger.Error("online rebuild failed", "video", videoID, "err", err)
			})
			if err != nil {
				logger.Error("rebuild loop failed", "err", err)
			}
		}()
		logger.Info("online rebuild loop active", "interval", *rebuildEvery)
	}

	// Fault injection (when enabled) sits *inside* the protection chain, so
	// shed requests never consume fault budget and the breaker observes the
	// injected 5xx.
	var handler http.Handler = srv
	profile, err := faultinject.Named(*chaos)
	if err != nil {
		logger.Error("unknown chaos profile", "profile", *chaos, "err", err)
		return 2
	}
	if profile.Enabled() {
		mw, err := faultinject.Middleware(profile, *chaosSeed, srv)
		if err != nil {
			logger.Error("fault middleware failed", "err", err)
			return 1
		}
		handler = mw
		logger.Info("chaos profile active", "profile", profile.Name, "seed", *chaosSeed)
	}

	cfg := def
	cfg.MaxInFlight = *maxInFlight
	cfg.MaxQueue = *maxQueue
	cfg.QueueTimeout = *queueWait
	cfg.HandlerTimeout = *handlerLimit
	cfg.RetryAfter = *retryAfter
	cfg.RatePerSec = *rate
	cfg.Burst = *burst
	cfg.Registry = reg
	cfg.Logger = logger
	chain, err := resilience.NewChain(cfg, handler)
	if err != nil {
		logger.Error("protection chain invalid", "err", err)
		return 2
	}

	if *spanRing > 0 {
		srv.Tracer().SetRingSize(*spanRing)
		chain.Tracer().SetRingSize(*spanRing)
	}

	// Anomaly flight recorder: sampled sessions dump their black box on SLO
	// burn (hooked below); dumps are served as JSONL at /debug/flight.
	var flight *obs.FlightRecorder
	if *flightSample > 0 {
		flight = obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: *flightSample, Registry: reg})
	}

	// In-process TSDB over the registry plus the SLO burn-rate engine:
	// availability (5xx ratio) and request latency objectives evaluated with
	// multi-window multi-burn-rate alerting on every sample tick.
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
				Name:        "availability",
				Description: "Non-5xx responses across all serving paths.",
				Kind:        obs.SLOEventRatio,
				Target:      0.99,
				Bad:         []obs.Selector{obs.Sel("httpstream_requests_total", obs.L("code", "5*"))},
				Total:       []obs.Selector{obs.Sel("httpstream_requests_total")},
				Windows:     obs.BurnWindows(*tsdbEvery),
			},
			{
				Name:         "latency",
				Description:  "Requests served under 500 ms.",
				Kind:         obs.SLOLatency,
				Target:       0.95,
				Latency:      obs.Sel("httpstream_request_seconds"),
				ThresholdSec: 0.5,
				Windows:      obs.BurnWindows(*tsdbEvery),
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

	// /healthz reports the live catalogue generation and, with the online
	// pipeline active, how stale its last rebuild is.
	health := obs.NewHealth()
	health.Set("catalog_version", func() any { return srv.CatalogVersion() })
	if pipeline != nil {
		p := pipeline
		health.Set("rebuild_age_seconds", func() any {
			age := p.RebuildAge()
			if age < 0 {
				return -1.0
			}
			return age.Seconds()
		})
	}

	// The ops endpoint listens separately so a scrape answers even while
	// the serving listener is saturated or draining.
	if *metricsAddr != "" {
		mux := obs.NewOpsMuxWith(reg, health)
		mux.Handle("/debug/spans/server", srv.Tracer().Handler())
		mux.Handle("/debug/spans/resilience", chain.Tracer().Handler())
		mux.Handle("/debug/spans", obs.NewSpanHub(srv.Tracer(), chain.Tracer()).Handler())
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

	// The flight middleware wraps the whole chain so shed 503s and breaker
	// rejections land in the black box alongside served segments.
	var serveHandler http.Handler = chain
	if flight != nil {
		serveHandler = httpstream.FlightMiddleware(flight, chain)
	}

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           serveHandler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	logger.Info("serving", "videos", len(catalogs), "addr", *addr,
		"max_inflight", *maxInFlight, "max_queue", *maxQueue, "rate_per_sec", *rate)
	err = resilience.Serve(ctx, httpServer, nil, chain, *drainWait)
	stopRebuild()
	rebuildWG.Wait()
	logger.Info("final outcome ledger")
	os.Stderr.WriteString(chain.Snapshot().String() + "\n")
	if err != nil {
		logger.Error("serve failed", "err", err)
		return 1
	}
	logger.Info("drained cleanly")
	return 0
}
