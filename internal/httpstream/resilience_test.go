package httpstream

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ptile360/internal/faultinject"
	"ptile360/internal/power"
)

// chaosProfile is the acceptance-gate fault mix: ≥10 % hard request
// failures plus latency spikes, with delays compressed so the suite stays
// fast.
func chaosProfile() faultinject.Profile {
	return faultinject.Profile{
		Name:        "test-chaos",
		LatencyProb: 0.15, LatencyMin: 20 * time.Millisecond, LatencyMax: 300 * time.Millisecond,
		Error5xxProb: 0.10,
		ResetProb:    0.08,
		TruncateProb: 0.08, TruncateFrac: 0.4,
		TimeScale: 50,
	}
}

// fastRetry keeps backoff waits negligible in tests.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: 0.5}
}

func TestClientConfigValidateTable(t *testing.T) {
	cases := []struct {
		name string
		cfg  ClientConfig
		ok   bool
	}{
		{"good", ClientConfig{BaseURL: "http://127.0.0.1:1"}, true},
		{"good https", ClientConfig{BaseURL: "https://cdn.example.com"}, true},
		{"empty URL", ClientConfig{}, false},
		{"garbage URL", ClientConfig{BaseURL: "://\x00nope"}, false},
		{"relative URL", ClientConfig{BaseURL: "just-a-path"}, false},
		{"wrong scheme", ClientConfig{BaseURL: "ftp://host"}, false},
		{"no host", ClientConfig{BaseURL: "http://"}, false},
		{"negative compression", ClientConfig{BaseURL: "http://x", TimeCompression: -1}, false},
		{"negative cap", ClientConfig{BaseURL: "http://x", MaxSegments: -1}, false},
		{"negative timeout", ClientConfig{BaseURL: "http://x", RequestTimeout: -time.Second}, false},
		{"bad retry attempts", ClientConfig{BaseURL: "http://x", Retry: RetryPolicy{MaxAttempts: 0, MaxDelay: time.Second}}, false},
		{"bad retry jitter", ClientConfig{BaseURL: "http://x", Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Second, Jitter: 2}}, false},
		{"inverted retry delays", ClientConfig{BaseURL: "http://x", Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Second, MaxDelay: time.Millisecond}}, false},
		{"custom retry ok", ClientConfig{BaseURL: "http://x", Retry: fastRetry()}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.5}
	// Exponential growth, capped at MaxDelay.
	for retry, want := range map[int]time.Duration{
		1: 50 * time.Millisecond,
		2: 100 * time.Millisecond,
		3: 200 * time.Millisecond,
		7: 2 * time.Second, // capped
	} {
		if got := p.Backoff(retry, 0); got != want {
			t.Errorf("Backoff(%d, 0) = %v, want %v", retry, got, want)
		}
	}
	// Jitter is bounded: delay ≤ base·2^(k−1)·(1+Jitter), even at u→1.
	for retry := 1; retry <= 8; retry++ {
		lo := p.Backoff(retry, 0)
		hi := p.Backoff(retry, 0.999999)
		if hi < lo {
			t.Fatalf("retry %d: jittered %v below unjittered %v", retry, hi, lo)
		}
		if max := time.Duration(float64(lo) * (1 + p.Jitter)); hi > max {
			t.Fatalf("retry %d: jittered %v above bound %v", retry, hi, max)
		}
	}
	// Degenerate inputs stay safe.
	if p.Backoff(0, 0) != 0 || p.Backoff(-3, 0.5) != 0 {
		t.Fatal("non-positive retry must yield zero backoff")
	}
	if (RetryPolicy{MaxAttempts: 1}).Backoff(4, 0.5) != 0 {
		t.Fatal("zero base delay must yield zero backoff")
	}
	if p.Backoff(2, -5) != p.Backoff(2, 0) {
		t.Fatal("negative jitter draw must clamp to 0")
	}
}

func TestRetryPolicyValidateTable(t *testing.T) {
	cases := []struct {
		name string
		p    RetryPolicy
		ok   bool
	}{
		{"default", DefaultRetryPolicy(), true},
		{"single attempt", RetryPolicy{MaxAttempts: 1}, true},
		{"zero attempts", RetryPolicy{MaxAttempts: 0}, false},
		{"negative base", RetryPolicy{MaxAttempts: 2, BaseDelay: -1}, false},
		{"max below base", RetryPolicy{MaxAttempts: 2, BaseDelay: time.Second, MaxDelay: time.Millisecond}, false},
		{"jitter above 1", RetryPolicy{MaxAttempts: 2, Jitter: 1.5}, false},
		{"negative jitter", RetryPolicy{MaxAttempts: 2, Jitter: -0.1}, false},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestManifestRetryAfterTransientFailures verifies the client outlasts a
// server that fails the first attempts.
func TestManifestRetryAfterTransientFailures(t *testing.T) {
	h := newHarness(t)
	var calls atomic.Int64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		h.server.Config.Handler.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	client, err := NewClient(ClientConfig{BaseURL: srv.URL, Phone: power.Pixel3, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := client.FetchManifest(2)
	if err != nil {
		t.Fatalf("manifest fetch did not survive transient 503s: %v", err)
	}
	if len(m.Segments) == 0 || calls.Load() != 3 {
		t.Fatalf("want success on attempt 3, got %d calls", calls.Load())
	}
}

// TestManifestRetryGivesUp verifies the retry budget is respected against a
// permanently failing server.
func TestManifestRetryGivesUp(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	client, err := NewClient(ClientConfig{BaseURL: srv.URL, Phone: power.Pixel3, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.FetchManifest(2); err == nil {
		t.Fatal("want error from permanently failing server")
	}
	if got := calls.Load(); got != int64(fastRetry().MaxAttempts) {
		t.Fatalf("server saw %d attempts, want %d", got, fastRetry().MaxAttempts)
	}
}

// Test4xxFailsFast verifies permanent client errors are not retried.
func Test4xxFailsFast(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "no such video", http.StatusNotFound)
	}))
	defer srv.Close()
	client, err := NewClient(ClientConfig{BaseURL: srv.URL, Phone: power.Pixel3, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.FetchManifest(99); err == nil {
		t.Fatal("want error for 404")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("404 retried %d times, want fail-fast single attempt", got)
	}
}

// TestContextCancellationAbortsPromptly verifies a cancelled session context
// stops the retry machinery quickly, including mid-backoff.
func TestContextCancellationAbortsPromptly(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	client, err := NewClient(ClientConfig{
		BaseURL: srv.URL,
		Phone:   power.Pixel3,
		Retry:   RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Second, MaxDelay: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.FetchManifestContext(ctx, 2)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the first long backoff
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("want cancellation error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled in chain, got %v", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("cancellation took %v", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not abort the retry loop")
	}
}

// pathTransport routes requests whose path has the given prefix through the
// faulty transport and everything else through the clean one, so tests can
// damage segments while leaving the manifest alone.
type pathTransport struct {
	prefix        string
	faulty, clean http.RoundTripper
}

func (t *pathTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasPrefix(req.URL.Path, t.prefix) {
		return t.faulty.RoundTrip(req)
	}
	return t.clean.RoundTrip(req)
}

// TestTruncatedSegmentDetectedAndRetried verifies the client catches short
// bodies via Content-Length and recovers by retrying.
func TestTruncatedSegmentDetectedAndRetried(t *testing.T) {
	h := newHarness(t)
	faulty, err := faultinject.NewTransport(faultinject.Profile{TruncateProb: 1, TruncateFrac: 0.5}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{
		BaseURL:     h.server.URL,
		Phone:       power.Pixel3,
		MaxSegments: 2,
		UseMPC:      true,
		Transport:   &pathTransport{prefix: "/segment", faulty: faulty, clean: http.DefaultTransport},
		Retry:       fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every response is truncated, so every rung fails: the session must
	// still complete, with both segments abandoned — never a short body
	// silently accepted as success.
	report, err := client.Stream(2, h.eval[0])
	if err != nil {
		t.Fatal(err)
	}
	if report.AbandonedSegments != 2 || report.TotalBytes != 0 {
		t.Fatalf("all-truncated run: %d abandoned, %d bytes; want 2 abandoned, 0 bytes",
			report.AbandonedSegments, report.TotalBytes)
	}
	if report.TotalRetries == 0 || report.Stalls != 2 {
		t.Fatalf("truncation must burn retries and record stalls: %+v", report)
	}
}

// TestDegradationLadder verifies that when only small payloads survive, the
// client steps down rungs instead of stalling out the session.
func TestDegradationLadder(t *testing.T) {
	h := newHarness(t)
	// A pass-through proxy that 503s any segment response predicted to be
	// large: only cheap rungs survive.
	inner := h.server.Config.Handler
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/segment") {
			q := r.URL.Query().Get("q")
			if q != "1" { // only the lowest quality gets through
				http.Error(w, "overloaded", http.StatusServiceUnavailable)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	client, err := NewClient(ClientConfig{
		BaseURL:     proxy.URL,
		Phone:       power.Pixel3,
		MaxSegments: 4,
		UseMPC:      true,
		Retry:       RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := client.Stream(2, h.eval[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Segments) != 4 {
		t.Fatalf("streamed %d segments, want 4", len(report.Segments))
	}
	for _, rec := range report.Segments {
		if rec.Abandoned {
			t.Fatalf("segment %d abandoned; the q1 rung should have served it", rec.Segment)
		}
		if rec.Quality != 1 {
			t.Fatalf("segment %d served at q%d; only q1 passes the proxy", rec.Segment, rec.Quality)
		}
	}
	if report.DegradedSegments == 0 {
		t.Fatalf("controller never picks q1 up front with local bandwidth; degradations must be recorded: %+v", report)
	}
}

// TestChaosStreamingSession is the acceptance gate: under ≥10 % hard request
// failures plus latency spikes, a full session completes without panic and
// with honest degradation/stall accounting.
func TestChaosStreamingSession(t *testing.T) {
	h := newHarness(t)
	tr, err := faultinject.NewTransport(chaosProfile(), 1234, nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{
		BaseURL:     h.server.URL,
		Phone:       power.Pixel3,
		MaxSegments: 25,
		UseMPC:      true,
		Transport:   tr,
		Retry:       fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := client.Stream(2, h.eval[0])
	if err != nil {
		t.Fatalf("chaos session must not fail: %v", err)
	}
	if len(report.Segments) != 25 {
		t.Fatalf("chaos session streamed %d segments, want 25", len(report.Segments))
	}
	stats := tr.Stats()
	if stats.Faults() == 0 {
		t.Fatalf("fault injector never fired: %v", stats)
	}
	// Resilience accounting must reconcile with the injected faults: every
	// hard fault either burned a retry or ended in an abandon.
	if report.TotalRetries == 0 {
		t.Fatalf("injected %d hard faults but recorded no retries", stats.Faults())
	}
	served := 0
	for _, rec := range report.Segments {
		if rec.Abandoned {
			if rec.Bytes != 0 || rec.StallSec <= 0 {
				t.Fatalf("abandoned segment %d must have zero bytes and a stall: %+v", rec.Segment, rec)
			}
			continue
		}
		served++
		if rec.Bytes <= 0 || rec.ThroughputBps <= 0 {
			t.Fatalf("segment %d malformed: %+v", rec.Segment, rec)
		}
		if rec.Quality < 1 || rec.Quality > 5 {
			t.Fatalf("segment %d quality %d", rec.Segment, rec.Quality)
		}
	}
	if served == 0 {
		t.Fatal("chaos run served nothing at all")
	}
	if report.AbandonedSegments+served != 25 {
		t.Fatalf("accounting mismatch: %d abandoned + %d served != 25", report.AbandonedSegments, served)
	}
}

// TestChaosServerSideMiddleware runs the same gate with the faults injected
// at the origin instead of the transport.
func TestChaosServerSideMiddleware(t *testing.T) {
	h := newHarness(t)
	mw, err := faultinject.Middleware(chaosProfile(), 99, h.server.Config.Handler)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mw)
	defer srv.Close()

	client, err := NewClient(ClientConfig{
		BaseURL:     srv.URL,
		Phone:       power.Pixel3,
		MaxSegments: 15,
		UseMPC:      true,
		Retry:       fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := client.Stream(2, h.eval[1])
	if err != nil {
		t.Fatalf("server-side chaos session must not fail: %v", err)
	}
	if len(report.Segments) != 15 {
		t.Fatalf("streamed %d segments, want 15", len(report.Segments))
	}
	if mw.Stats().Faults() == 0 {
		t.Fatalf("middleware never fired: %v", mw.Stats())
	}
}

// TestNoFaultRunMatchesSeedBehavior pins the zero-overhead path: with the
// injector off and the default config, the resilient client downloads the
// exact same bytes as a plain run (retries and degradation never engage).
func TestNoFaultRunMatchesSeedBehavior(t *testing.T) {
	h := newHarness(t)
	run := func(transport http.RoundTripper) *SessionReport {
		t.Helper()
		cfg := ClientConfig{
			BaseURL:     h.server.URL,
			Phone:       power.Pixel3,
			MaxSegments: 10,
			UseMPC:      true,
			Transport:   transport,
		}
		client, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		report, err := client.Stream(2, h.eval[2])
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	plain := run(nil)
	offTr, err := faultinject.NewTransport(faultinject.Profile{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	withOff := run(offTr)

	if plain.TotalBytes != withOff.TotalBytes || len(plain.Segments) != len(withOff.Segments) {
		t.Fatalf("off-injector run diverged: %d vs %d bytes", plain.TotalBytes, withOff.TotalBytes)
	}
	for i := range plain.Segments {
		a, b := plain.Segments[i], withOff.Segments[i]
		if a.Bytes != b.Bytes || a.Quality != b.Quality || a.FrameRate != b.FrameRate {
			t.Fatalf("segment %d diverged: %+v vs %+v", i, a, b)
		}
	}
	if plain.TotalRetries != 0 || plain.DegradedSegments != 0 || plain.AbandonedSegments != 0 {
		t.Fatalf("healthy run engaged resilience: %+v", plain)
	}
}

// TestStreamContextCancelMidSession verifies StreamContext aborts between
// segments.
func TestStreamContextCancelMidSession(t *testing.T) {
	h := newHarness(t)
	client, err := NewClient(ClientConfig{BaseURL: h.server.URL, Phone: power.Pixel3, MaxSegments: 50, UseMPC: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.StreamContext(ctx, 2, h.eval[0]); err == nil {
		t.Fatal("want error from cancelled session")
	}
}

// TestDownloadBodyCapEnforced verifies the client refuses absurd bodies
// instead of reading them forever.
func TestDownloadBodyCapEnforced(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Declare an absurd size; the header gate must trip before any
		// bytes are read.
		w.Header().Set("Content-Length", "99999999999999")
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	if _, err := ParseSegmentHeader(http.Header{"Content-Length": {"99999999999999"}}); err == nil {
		t.Fatal("want error for absurd declared size")
	}
	resp, err := http.Get(srv.URL)
	if err == nil {
		defer resp.Body.Close()
		if _, err := ParseSegmentHeader(resp.Header); err == nil {
			t.Fatal("want error for absurd Content-Length on the wire")
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 16))
	}
}
