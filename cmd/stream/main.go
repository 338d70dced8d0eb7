// Command stream drives a full playback session against a ptileserver: it
// generates a viewer, fetches the manifest, and streams segments with the
// paper's controller, emitting one JSON telemetry event per segment (the
// paper's headline series: size, frame rate, stall, QoE loss, energy)
// and logging a periodic session summary.
//
// A chaos run injects client-side faults from a named profile and reports
// the resilience accounting (retries, degradations, abandons, stalls):
//
//	stream -url http://127.0.0.1:8360 -video 8 -segments 30 -shaped
//	stream -url http://127.0.0.1:8360 -video 8 -faults chaos -fault-seed 7
//	stream -telemetry session.jsonl -session-json session.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"ptile360/internal/faultinject"
	"ptile360/internal/headtrace"
	"ptile360/internal/httpstream"
	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/obs"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		baseURL      = flag.String("url", "http://127.0.0.1:8360", "ptileserver address")
		videoID      = flag.Int("video", 8, "Table III video ID")
		segments     = flag.Int("segments", 30, "number of segments to stream (0 = all)")
		shaped       = flag.Bool("shaped", false, "pace downloads against the LTE trace 2")
		netSpec      = flag.String("net", "off", "packet-level network model: off, or netem:<profile[,key=val...]> (profiles: "+strings.Join(netem.ProfileNames(), ", ")+")")
		netPace      = flag.Float64("net-pace", 0, "netem paced-sender factor: transmit at factor x segment bitrate instead of bursting (0 disables; with -net)")
		estimator    = flag.String("estimator", "harmonic", "bandwidth estimator: harmonic, last-sample, ewma, moving-average, delay-gradient")
		compress     = flag.Float64("compress", 20, "time compression for shaping")
		useMPC       = flag.Bool("mpc", true, "use the energy-minimizing MPC controller")
		seed         = flag.Int64("seed", 7, "viewer seed")
		csvOut       = flag.String("csv", "", "also write per-segment records as CSV to this file")
		faults       = flag.String("faults", "off", "fault profile injected at the client transport: off, flaky, lossy, slow, chaos")
		faultSeed    = flag.Int64("fault-seed", 1, "seed for the fault injector's reproducible schedule")
		timeout      = flag.Duration("timeout", httpstream.DefaultRequestTimeout, "per-request timeout")
		retries      = flag.Int("retries", 0, "attempts per quality rung (0 = default policy)")
		telemetryOut = flag.String("telemetry", "-", "write per-segment JSON telemetry records to this file (\"-\" = stdout, empty disables)")
		sessionOut   = flag.String("session-json", "", "write the full session report as JSON to this file")
		flightOut    = flag.String("flight", "", "record the session in a flight recorder and write its anomaly dumps as JSONL to this file (\"-\" = stderr, empty disables)")
		summaryEvery = flag.Int("summary-every", 10, "log a session summary every N segments (0 disables)")
		logCfg       = obs.LogFlags(nil)
	)
	flag.Parse()

	logger, err := logCfg.NewLogger(os.Stderr)
	if err != nil {
		os.Stderr.WriteString("stream: " + err.Error() + "\n")
		return 2
	}

	p, err := video.ProfileByID(*videoID)
	if err != nil {
		logger.Error("unknown video profile", "video", *videoID, "err", err)
		return 2
	}
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = 1
	ds, err := headtrace.Generate(p, gcfg, *seed)
	if err != nil {
		logger.Error("head-trace generation failed", "err", err)
		return 1
	}
	viewer := ds.Traces[0]

	// Telemetry sink: JSONL events as the session progresses.
	var telemetryW io.Writer
	switch *telemetryOut {
	case "":
	case "-":
		telemetryW = os.Stdout
	default:
		f, err := os.Create(*telemetryOut)
		if err != nil {
			logger.Error("telemetry file", "path", *telemetryOut, "err", err)
			return 1
		}
		defer f.Close()
		telemetryW = f
	}

	reg := obs.Default()
	cfg := httpstream.ClientConfig{
		BaseURL:         *baseURL,
		Phone:           power.Pixel3,
		MaxSegments:     *segments,
		TimeCompression: *compress,
		UseMPC:          *useMPC,
		RequestTimeout:  *timeout,
		RetrySeed:       *faultSeed,
		ClientID:        fmt.Sprintf("stream-%d", *seed),
		Metrics:         reg,
	}
	// Flight recorder: SampleEvery 1 so this single session is always
	// recorded; dumps (abandon, stall burst) are written after the run.
	var flight *obs.FlightRecorder
	if *flightOut != "" {
		flight = obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 1, Registry: reg})
		cfg.Flight = flight
	}
	enc := json.NewEncoder(telemetryW)
	if telemetryW == nil {
		enc = nil
	}
	progress := &httpstream.SessionReport{VideoID: *videoID}
	cfg.Telemetry = func(ev httpstream.SegmentEvent) {
		progress.Add(ev.SegmentTrace)
		if enc != nil {
			if err := enc.Encode(ev); err != nil {
				logger.Error("telemetry write failed", "err", err)
			}
		}
		if *summaryEvery > 0 && len(progress.Segments)%*summaryEvery == 0 {
			logSummary(logger, "session progress", progress)
		}
	}
	if *retries > 0 {
		rp := httpstream.DefaultRetryPolicy()
		rp.MaxAttempts = *retries
		cfg.Retry = rp
	}
	kind, err := predict.ParseEstimatorKind(*estimator)
	if err != nil {
		logger.Error("bad estimator", "err", err)
		return 2
	}
	cfg.Estimator = kind
	if *shaped {
		_, tr2, err := lte.StandardTraces(400, 99)
		if err != nil {
			logger.Error("LTE trace generation failed", "err", err)
			return 1
		}
		cfg.Shape = tr2
	}
	if *netSpec != "" && *netSpec != "off" {
		if *shaped {
			logger.Error("-shaped and -net are mutually exclusive bandwidth models")
			return 2
		}
		spec, ok := strings.CutPrefix(*netSpec, "netem:")
		if !ok {
			logger.Error("bad -net value: want off or netem:<profile>", "net", *netSpec)
			return 2
		}
		prof, err := netem.ParseProfile(spec)
		if err != nil {
			logger.Error("bad netem profile", "net", spec, "err", err)
			return 2
		}
		pn, err := netem.NewSessionNet(netem.SessionConfig{
			Profile: prof,
			Seed:    *seed,
			// The catalogue serves 1 s segments (the paper's L); the paced
			// sending rate is PaceFactor x sizeBits/L.
			SegmentSec: 1,
			PaceFactor: *netPace,
			Metrics:    netem.NewMetrics(reg, prof.Name),
		})
		if err != nil {
			logger.Error("netem path construction failed", "err", err)
			return 1
		}
		cfg.Net = pn
		logger.Info("packet-level network emulation active",
			"profile", prof.Name, "estimator", kind.String(), "pace_factor", *netPace)
	}
	var injector *faultinject.Transport
	profile, err := faultinject.Named(*faults)
	if err != nil {
		logger.Error("unknown fault profile", "profile", *faults, "err", err)
		return 2
	}
	if profile.Enabled() {
		injector, err = faultinject.NewTransport(profile, *faultSeed, nil)
		if err != nil {
			logger.Error("fault transport failed", "err", err)
			return 1
		}
		cfg.Transport = injector
		logger.Info("fault profile active", "profile", profile.Name, "seed", *faultSeed)
	}
	client, err := httpstream.NewClient(cfg)
	if err != nil {
		logger.Error("client construction failed", "err", err)
		return 1
	}
	start := time.Now()
	report, err := client.Stream(*videoID, viewer)
	if err != nil {
		logger.Error("stream failed", "video", *videoID, "err", err)
		return 1
	}

	logSummary(logger, "session complete", report, "wall_sec", time.Since(start).Seconds())
	if injector != nil {
		logger.Info("injected faults", "stats", fmt.Sprint(injector.Stats()))
	}

	if *sessionOut != "" {
		if err := writeJSON(*sessionOut, report); err != nil {
			logger.Error("session dump failed", "path", *sessionOut, "err", err)
			return 1
		}
		logger.Info("wrote session dump", "path", *sessionOut)
	}
	if *csvOut != "" {
		if err := writeCSV(*csvOut, report); err != nil {
			logger.Error("CSV write failed", "path", *csvOut, "err", err)
			return 1
		}
		logger.Info("wrote CSV", "path", *csvOut)
	}
	if flight != nil {
		var w io.Writer = os.Stderr
		if *flightOut != "-" {
			f, err := os.Create(*flightOut)
			if err != nil {
				logger.Error("flight file", "path", *flightOut, "err", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if err := flight.WriteJSONL(w); err != nil {
			logger.Error("flight dump failed", "err", err)
			return 1
		}
		logger.Info("wrote flight dumps", "path", *flightOut, "dumps", len(flight.Dumps()))
	}
	return 0
}

// logSummary logs a session report's totals as msg, followed by extra
// key-value pairs.
func logSummary(logger *slog.Logger, msg string, r *httpstream.SessionReport, extra ...any) {
	meanLoss := 0.0
	if n := len(r.Segments); n > 0 {
		meanLoss = r.TotalQoELoss / float64(n)
	}
	logger.Info(msg, append([]any{
		"video", r.VideoID,
		"segments", len(r.Segments),
		"mb", float64(r.TotalBytes) / 1e6,
		"energy_j", r.TotalEnergyMJ / 1e3,
		"ptile_segments", r.PtileSegments,
		"qoe_loss_mean", meanLoss,
		"retries", r.TotalRetries,
		"degraded", r.DegradedSegments,
		"abandoned", r.AbandonedSegments,
		"stalls", r.Stalls,
		"stall_sec", r.TotalStallSec,
	}, extra...)...)
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCSV(path string, report *httpstream.SessionReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sim.WriteSegmentsCSV(f, report.Segments); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
