// Chaos soak: the server-side overload-protection story end to end. A
// deliberately under-provisioned Ptile server (small admission limit and
// queue, per-client rate limit, circuit breaker) is wrapped around a
// fault-injected tile server and hammered by three kinds of traffic at
// once: a fleet of resilient streaming clients, a request stampede far
// beyond capacity, and a single abusive client bursting past its token
// budget. The run finishes with a signal-style graceful drain, prints the
// chain's per-endpoint outcome ledger, and fails unless every request that
// entered the chain reached exactly one terminal outcome.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ptile360/internal/faultinject"
	"ptile360/internal/headtrace"
	"ptile360/internal/httpstream"
	"ptile360/internal/power"
	"ptile360/internal/resilience"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

func main() {
	if err := run(); err != nil {
		slog.Error("chaossoak failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	clients := flag.Int("clients", 12, "concurrent streaming clients")
	segments := flag.Int("segments", 4, "segments per streaming session")
	stampede := flag.Int("stampede", 36, "concurrent one-shot requests in the stampede burst")
	flag.Parse()

	// Server side: video 2's catalogue, as in the other examples.
	p, err := video.ProfileByID(2)
	if err != nil {
		return err
	}
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = 14
	ds, err := headtrace.Generate(p, gcfg, 11)
	if err != nil {
		return err
	}
	prep, err := sim.PrepareVideo(ds, 10, 11, 0)
	if err != nil {
		return err
	}
	inner, err := httpstream.NewServer(map[int]*sim.Catalog{2: prep.Catalog},
		video.DefaultEncoderConfig(), []float64{30, 27, 24, 21})
	if err != nil {
		return err
	}

	// Chaos inside the protection chain: injected latency is served while
	// holding an admission slot, which is what drives the queue overflow.
	profile := faultinject.Profile{
		Name:        "soak-chaos",
		LatencyProb: 0.9, LatencyMin: 400 * time.Millisecond, LatencyMax: 2 * time.Second,
		Error5xxProb: 0.08,
		ResetProb:    0.05,
		TruncateProb: 0.05, TruncateFrac: 0.4,
		TimeScale: 50,
	}
	faulty, err := faultinject.Middleware(profile, 1234, inner)
	if err != nil {
		return err
	}
	breaker := resilience.DefaultBreakerConfig()
	cfg := resilience.Config{
		MaxInFlight:    6,
		MaxQueue:       6,
		QueueTimeout:   150 * time.Millisecond,
		HandlerTimeout: 10 * time.Second,
		RetryAfter:     time.Second,
		RatePerSec:     50,
		Burst:          20,
		Breaker:        &breaker,
		ExemptPaths:    []string{"/healthz"},
	}
	chain, err := resilience.NewChain(cfg, faulty)
	if err != nil {
		return err
	}
	// Count every request entering the chain, whatever its outcome.
	var entered atomic.Int64
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered.Add(1)
		chain.ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           counted,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       10 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- resilience.Serve(ctx, srv, ln, chain, 10*time.Second) }()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("soak server on %s: N=%d in-flight, Q=%d queued, %g req/s per client (burst %g)\n\n",
		ln.Addr(), cfg.MaxInFlight, cfg.MaxQueue, cfg.RatePerSec, cfg.Burst)

	// Traffic 1 — resilient streaming sessions.
	type outcome struct {
		id     int
		report *httpstream.SessionReport
		err    error
	}
	results := make(chan outcome, *clients)
	var sessions sync.WaitGroup
	for i := 0; i < *clients; i++ {
		sessions.Add(1)
		go func(i int) {
			defer sessions.Done()
			client, err := httpstream.NewClient(httpstream.ClientConfig{
				BaseURL:     baseURL,
				Phone:       power.Pixel3,
				MaxSegments: *segments,
				UseMPC:      true,
				ClientID:    fmt.Sprintf("viewer-%d", i),
				Retry: httpstream.RetryPolicy{
					MaxAttempts: 5, BaseDelay: 2 * time.Millisecond,
					MaxDelay: 40 * time.Millisecond, Jitter: 0.5,
				},
				RetrySeed: int64(i + 1),
			})
			if err != nil {
				results <- outcome{id: i, err: err}
				return
			}
			report, err := client.Stream(2, prep.Eval[i%len(prep.Eval)])
			results <- outcome{id: i, report: report, err: err}
		}(i)
	}
	time.Sleep(30 * time.Millisecond)

	// Traffic 2 — stampede: one-shot requests far beyond N+Q.
	var burst sync.WaitGroup
	var shed503, retryAfterSeen atomic.Int64
	for i := 0; i < *stampede; i++ {
		burst.Add(1)
		go func(i int) {
			defer burst.Done()
			req, _ := http.NewRequest(http.MethodGet, baseURL+"/manifest?video=2", nil)
			req.Header.Set("X-Client-Id", fmt.Sprintf("stampede-%d", i))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				shed503.Add(1)
				if resp.Header.Get("Retry-After") != "" {
					retryAfterSeen.Add(1)
				}
			}
		}(i)
	}

	// Traffic 3 — abuser: one client ID, concurrent burst past its bucket.
	var limited atomic.Int64
	for i := 0; i < 60; i++ {
		burst.Add(1)
		go func() {
			defer burst.Done()
			req, _ := http.NewRequest(http.MethodGet, baseURL+"/manifest?video=2", nil)
			req.Header.Set("X-Client-Id", "abuser")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				limited.Add(1)
			}
		}()
	}

	burst.Wait()
	sessions.Wait()
	close(results)

	fmt.Println("== streaming sessions ==")
	completed := 0
	for r := range results {
		if r.err != nil {
			fmt.Printf("  viewer-%-2d FAILED: %v\n", r.id, r.err)
			continue
		}
		completed++
		fmt.Printf("  viewer-%-2d %d segments, %d retries, %d abandoned, stall %.2fs\n",
			r.id, len(r.report.Segments), r.report.TotalRetries,
			r.report.AbandonedSegments, r.report.TotalStallSec)
	}
	fmt.Printf("  %d/%d sessions completed under overload\n\n", completed, *clients)

	fmt.Println("== burst traffic ==")
	fmt.Printf("  stampede: %d shed with 503 (%d carried Retry-After)\n", shed503.Load(), retryAfterSeen.Load())
	fmt.Printf("  abuser:   %d of 60 requests answered 429\n\n", limited.Load())

	// Graceful drain, exactly what cmd/ptileserver does on SIGTERM.
	cancel()
	if err := <-serveDone; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	snap := chain.Snapshot()
	fmt.Println("== server outcome ledger (post-drain) ==")
	fmt.Println(snap)
	totals := snap.Totals()
	fmt.Printf("\nterminal outcomes: %d (admitted %d, shed %d, limited %d, broken %d, panicked %d)\n",
		totals.Terminal(), totals.Admitted, totals.Shed, totals.Limited, totals.Broken, totals.Panicked)
	if n := entered.Load(); totals.Terminal() != n {
		return fmt.Errorf("%d requests entered the chain but %d reached a terminal outcome", n, totals.Terminal())
	}
	fmt.Printf("drained cleanly: each of the %d requests that entered the chain reached one terminal outcome\n", entered.Load())
	return nil
}
