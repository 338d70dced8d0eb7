// Chaos streaming: the endtoend deployment path run twice against the same
// in-process Ptile server — once over a clean transport, once through the
// "chaos" fault profile (latency spikes, 5xx, resets, truncations, dribble).
// The resilient client retries with backoff, degrades down the rung ladder,
// and keeps the session alive; the run prints both sessions side by side with
// the resilience accounting and the injector's fault tally.
package main

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"ptile360/internal/faultinject"
	"ptile360/internal/headtrace"
	"ptile360/internal/httpstream"
	"ptile360/internal/power"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

func main() {
	if err := run(); err != nil {
		slog.Error("chaosstream failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	// Server side: prepare video 2's catalogue, exactly as endtoend does.
	p, err := video.ProfileByID(2)
	if err != nil {
		return err
	}
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = 16
	ds, err := headtrace.Generate(p, gcfg, 42)
	if err != nil {
		return err
	}
	prep, err := sim.PrepareVideo(ds, 12, 42, 0)
	if err != nil {
		return err
	}
	srv, err := httpstream.NewServer(map[int]*sim.Catalog{2: prep.Catalog},
		video.DefaultEncoderConfig(), []float64{30, 27, 24, 21})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpServer := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()
	defer func() {
		if err := httpServer.Close(); err != nil {
			slog.Error("server close failed", "err", err)
		}
		<-serveErr
	}()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("ptile server listening on %s\n", baseURL)

	// The chaos profile injects ~17%% faults per request. TimeScale compresses
	// its latency spikes and dribble delays so the example finishes quickly;
	// the fast retry policy does the same for the client's backoff waits.
	profile, err := faultinject.Named("chaos")
	if err != nil {
		return err
	}
	profile.TimeScale = 50
	injector, err := faultinject.NewTransport(profile, 1234, nil)
	if err != nil {
		return err
	}
	retry := httpstream.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: 0.5}

	baseCfg := httpstream.ClientConfig{
		BaseURL:     baseURL,
		Phone:       power.Pixel3,
		MaxSegments: 25,
		UseMPC:      true,
		Retry:       retry,
	}

	// Session 1: clean transport — the baseline the chaos run degrades from.
	clean, err := stream(baseCfg, prep.Eval[0])
	if err != nil {
		return err
	}

	// Session 2: same viewer, same server, faults injected at the transport.
	chaosCfg := baseCfg
	chaosCfg.Transport = injector
	chaosCfg.RetrySeed = 1234
	chaos, err := stream(chaosCfg, prep.Eval[0])
	if err != nil {
		return err
	}

	fmt.Printf("\n%-22s %12s %12s\n", "", "clean", "chaos")
	row := func(label, format string, a, b any) {
		fmt.Printf("%-22s %12s %12s\n", label, fmt.Sprintf(format, a), fmt.Sprintf(format, b))
	}
	row("segments", "%d", len(clean.Segments), len(chaos.Segments))
	row("downloaded (MB)", "%.1f", float64(clean.TotalBytes)/1e6, float64(chaos.TotalBytes)/1e6)
	row("energy (J)", "%.1f", clean.TotalEnergyMJ/1e3, chaos.TotalEnergyMJ/1e3)
	row("retries", "%d", clean.TotalRetries, chaos.TotalRetries)
	row("degraded segments", "%d", clean.DegradedSegments, chaos.DegradedSegments)
	row("abandoned segments", "%d", clean.AbandonedSegments, chaos.AbandonedSegments)
	row("stalls", "%d", clean.Stalls, chaos.Stalls)
	row("total stall (s)", "%.2f", clean.TotalStallSec, chaos.TotalStallSec)
	fmt.Printf("\ninjected faults: %v\n", injector.Stats())

	fmt.Println("\nchaos-session segments with resilience events:")
	events := 0
	for _, rec := range chaos.Segments {
		if rec.Retries == 0 && rec.DegradeSteps == 0 && !rec.Abandoned && rec.StallSec == 0 {
			continue
		}
		events++
		note := ""
		switch {
		case rec.Abandoned:
			note = "ABANDONED"
		case rec.DegradeSteps > 0:
			note = fmt.Sprintf("degraded -%d", rec.DegradeSteps)
		}
		fmt.Printf("  seg %2d: q%d @ %2.0f fps, %4.0f kB, %d retries, stall %.2fs %s\n",
			rec.Segment, rec.Quality, rec.FrameRate, float64(rec.Bytes)/1e3,
			rec.Retries, rec.StallSec, note)
	}
	if events == 0 {
		fmt.Println("  (none — every segment downloaded on the first attempt)")
	}
	return nil
}

func stream(cfg httpstream.ClientConfig, viewer *headtrace.Trace) (*httpstream.SessionReport, error) {
	client, err := httpstream.NewClient(cfg)
	if err != nil {
		return nil, err
	}
	return client.Stream(2, viewer)
}
