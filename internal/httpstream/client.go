package httpstream

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"ptile360/internal/abr"
	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/obs"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// ClientConfig tunes the streaming client.
type ClientConfig struct {
	// BaseURL is the server address, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Phone selects the Table I power model of the energy accounting.
	Phone power.Phone
	// Shape optionally charges each download the transfer time of an LTE
	// trace (the trace integrated from the request's start). Nil means
	// unshaped: an attempt is charged its measured wall time.
	Shape *lte.Trace
	// Net routes downloads through the in-process packet-level network
	// emulator instead of the segment-level Shape trace: each segment body
	// is read from the server at local speed, then charged the emulated
	// transfer time (packetization, queueing, loss, retransmission) of the
	// version's modeled size, and the per-packet timing is fed to a
	// PacketObserver estimator. Mutually exclusive with Shape.
	Net *netem.SessionNet
	// Estimator selects the bandwidth-estimator family. The zero value
	// means the paper's harmonic mean over a 5-sample window. The
	// delay-gradient kind additionally consumes packet timing when Net is
	// set.
	Estimator predict.EstimatorKind
	// TimeCompression divides the sleeps that pace a Shape or Net download
	// to its charged transfer time: 10 means the session runs 10× faster
	// than real time while preserving per-segment throughput accounting.
	// Zero means 1.
	TimeCompression float64
	// MaxSegments caps the number of segments streamed (0 = whole video).
	MaxSegments int
	// UseMPC selects the paper's energy-minimizing controller over the
	// manifest's frame rates; false streams the Ptile baseline at the
	// source frame rate.
	UseMPC bool

	// RequestTimeout bounds each HTTP request (one manifest fetch or one
	// segment download attempt) via context. Zero means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Retry governs failed-request handling. The zero value means
	// DefaultRetryPolicy().
	Retry RetryPolicy
	// RetrySeed seeds the backoff jitter so resilience runs reproduce
	// exactly. Zero means seed 1.
	RetrySeed int64
	// Transport optionally replaces the HTTP transport — e.g. a
	// faultinject.Transport for chaos testing. Nil uses the default
	// transport; the healthy path is then byte-identical to a client
	// without the resilience layer, because retries and degradation only
	// engage on failure.
	Transport http.RoundTripper
	// ClientID, when set, is sent as the X-Client-Id header so the
	// server's per-client rate limiter can key on the session rather than
	// the shared NAT address. It also labels telemetry events.
	ClientID string
	// Telemetry, when set, receives each segment's event (served or
	// abandoned) as the session progresses — the paper's headline series:
	// size, frame rate, stall, QoE loss, and modeled energy. The callback
	// runs on the streaming goroutine; keep it fast.
	Telemetry func(SegmentEvent)
	// Metrics, when set, receives the session's counters and per-stage
	// latency histograms (client_segments_total, client_stall_seconds_total,
	// client_qoe_loss, client_segment_stage_seconds, ...).
	Metrics *obs.Registry
	// Flight, when set, black-boxes the session: a sampled per-session ring
	// of segment events that dumps on anomaly triggers (abandon, stall
	// burst, SLO burn). Sessions the recorder does not sample pay one nil
	// check per segment.
	Flight *obs.FlightRecorder
}

// Validate reports whether the configuration is usable.
func (c ClientConfig) Validate() error {
	if c.BaseURL == "" {
		return fmt.Errorf("httpstream: empty base URL")
	}
	u, err := url.Parse(c.BaseURL)
	if err != nil {
		return fmt.Errorf("httpstream: bad base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("httpstream: base URL %q: scheme %q is not http(s)", c.BaseURL, u.Scheme)
	}
	if u.Host == "" {
		return fmt.Errorf("httpstream: base URL %q has no host", c.BaseURL)
	}
	if c.TimeCompression < 0 {
		return fmt.Errorf("httpstream: negative time compression %g", c.TimeCompression)
	}
	if c.Shape != nil && c.Net != nil {
		return fmt.Errorf("httpstream: Shape and Net are mutually exclusive bandwidth models")
	}
	if c.MaxSegments < 0 {
		return fmt.Errorf("httpstream: negative segment cap %d", c.MaxSegments)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("httpstream: negative request timeout %v", c.RequestTimeout)
	}
	if c.Retry != (RetryPolicy{}) {
		if err := c.Retry.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SessionReport summarizes a client streaming run.
type SessionReport struct {
	VideoID int
	// Segments are the session's events, one per stepped segment: the rows
	// a simulated session records in Result.PerSegment.
	Segments []sim.SegmentTrace
	// TotalBytes is the summed payload volume.
	TotalBytes int64
	// TotalEnergyMJ is the summed Eq. 1 energy estimate.
	TotalEnergyMJ float64
	// PtileSegments counts Ptile-served segments.
	PtileSegments int
	// TotalRetries counts failed download attempts across the session.
	TotalRetries int
	// DegradedSegments counts segments served below the controller's
	// chosen rung.
	DegradedSegments int
	// AbandonedSegments counts segments skipped after the ladder was
	// exhausted.
	AbandonedSegments int
	// Stalls counts segments that charged rebuffering time.
	Stalls int
	// TotalStallSec is the summed rebuffering time.
	TotalStallSec float64
	// TotalQoELoss sums the per-segment QoE losses (fractions in [0, 1]);
	// divide by len(Segments) for the session mean the paper's ≤5 %
	// constraint is stated over.
	TotalQoELoss float64
}

// Add appends one segment's event to the report and folds it into the
// totals.
func (r *SessionReport) Add(ev sim.SegmentTrace) {
	r.Segments = append(r.Segments, ev)
	r.TotalBytes += ev.Bytes
	r.TotalEnergyMJ += ev.EnergyMJ
	if ev.FromPtile {
		r.PtileSegments++
	}
	r.TotalRetries += ev.Retries
	if ev.DegradeSteps > 0 {
		r.DegradedSegments++
	}
	if ev.Abandoned {
		r.AbandonedSegments++
	}
	if ev.StallSec > 0 {
		r.Stalls++
		r.TotalStallSec += ev.StallSec
	}
	r.TotalQoELoss += ev.QoELoss
}

// Client streams a video from a Server, running the simulator's session
// step (sim.Stepper) over real HTTP. It survives flaky transports:
// per-request timeouts, bounded retries with exponential backoff and
// jitter, and a degradation ladder that steps down to cheaper rungs —
// abandoning a segment only when every rung has failed — so an unreliable
// network degrades the session instead of killing it.
type Client struct {
	cfg     ClientConfig
	http    *http.Client
	timeout time.Duration
	retry   RetryPolicy
	obs     *clientObs // nil when cfg.Metrics is unset

	mu  sync.Mutex // guards rng
	rng *rand.Rand // backoff jitter draws
}

// NewClient validates the configuration and builds a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := power.TableI(cfg.Phone); err != nil {
		return nil, err
	}
	retry := cfg.Retry
	if retry == (RetryPolicy{}) {
		retry = DefaultRetryPolicy()
	}
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = DefaultRequestTimeout
	}
	seed := cfg.RetrySeed
	if seed == 0 {
		seed = 1
	}
	hc := &http.Client{Timeout: 2 * time.Minute}
	if cfg.Transport != nil {
		hc.Transport = cfg.Transport
	}
	var co *clientObs
	if cfg.Metrics != nil {
		co = newClientObs(cfg.Metrics)
	}
	return &Client{
		cfg:     cfg,
		http:    hc,
		timeout: timeout,
		retry:   retry,
		obs:     co,
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// Tracer returns the client's per-segment span recorder (nil without
// Metrics) for stitching cross-tier traces in a SpanHub.
func (c *Client) Tracer() *obs.Tracer {
	if c.obs == nil {
		return nil
	}
	return c.obs.tracer
}

// jitter draws a uniform jitter sample under the client lock.
func (c *Client) jitter() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// backoffWait sleeps before the retry-th retry: the policy's backoff,
// raised to any Retry-After hint the failed attempt carried (capped at the
// policy's max delay), aborting promptly when the session context dies.
func (c *Client) backoffWait(ctx context.Context, retry int, lastErr error) error {
	return sleepCtx(ctx, c.retry.BackoffWithHint(retry, c.jitter(), retryAfterHint(lastErr)))
}

// cancelBody ties a request-scoped cancel to the response body's Close so
// per-request contexts do not leak.
type cancelBody struct {
	rc     io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Read(p []byte) (int, error) { return b.rc.Read(p) }
func (b *cancelBody) Close() error {
	err := b.rc.Close()
	b.cancel()
	return err
}

// get issues one GET bounded by the per-request timeout.
func (c *Client) get(ctx context.Context, rawURL string) (*http.Response, error) {
	reqCtx, cancel := ctx, context.CancelFunc(func() {})
	if c.timeout > 0 {
		reqCtx, cancel = context.WithTimeout(ctx, c.timeout)
	}
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, rawURL, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	if c.cfg.ClientID != "" {
		req.Header.Set("X-Client-Id", c.cfg.ClientID)
	}
	// Propagate the segment span's trace across the wire so the router,
	// resilience chain, and server stitch their spans under the same trace.
	if tc, ok := obs.TraceFromContext(ctx); ok {
		tc.SetHeader(req.Header)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelBody{rc: resp.Body, cancel: cancel}
	return resp, nil
}

// FetchManifest downloads and decodes the manifest for the given video.
func (c *Client) FetchManifest(videoID int) (*Manifest, error) {
	return c.FetchManifestContext(context.Background(), videoID)
}

// FetchManifestContext is FetchManifest bounded by a session context, with
// the client's retry policy applied to transient failures.
func (c *Client) FetchManifestContext(ctx context.Context, videoID int) (*Manifest, error) {
	var lastErr error
	attempts := 0
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.backoffWait(ctx, attempt, lastErr); err != nil {
				return nil, fmt.Errorf("httpstream: fetch manifest: %w", err)
			}
		}
		m, err := c.fetchManifestOnce(ctx, videoID)
		if err == nil {
			return m, nil
		}
		lastErr = err
		attempts++
		if !retryable(err) || ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("httpstream: fetch manifest (%d attempts): %w", attempts, lastErr)
}

func (c *Client) fetchManifestOnce(ctx context.Context, videoID int) (*Manifest, error) {
	resp, err := c.get(ctx, fmt.Sprintf("%s/manifest?video=%d", c.cfg.BaseURL, videoID))
	if err != nil {
		return nil, fmt.Errorf("fetch manifest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("manifest: %w", newStatusError(resp))
	}
	return DecodeManifest(resp.Body)
}

// Stream plays the whole video for the given viewer, returning the
// per-segment accounting.
func (c *Client) Stream(videoID int, viewer *headtrace.Trace) (*SessionReport, error) {
	return c.StreamContext(context.Background(), videoID, viewer)
}

// StreamContext plays the video under a session context: cancelling it
// aborts the session promptly, including mid-backoff and mid-download.
//
// The session is the simulator's: a sim.Stepper over the catalogue rebuilt
// from the manifest, stepped once per segment with the HTTP fetch behind
// the step's link. Prediction, planning, the controller, and the Eq. 1
// energy and Eq. 2 QoE accounting are sim.Step's own.
func (c *Client) StreamContext(ctx context.Context, videoID int, viewer *headtrace.Trace) (*SessionReport, error) {
	if viewer == nil || len(viewer.Samples) == 0 {
		return nil, fmt.Errorf("httpstream: empty viewer trace")
	}
	man, err := c.FetchManifestContext(ctx, videoID)
	if err != nil {
		return nil, err
	}
	st, err := c.stepper(man)
	if err != nil {
		return nil, err
	}
	link := &httpLink{c: c, video: videoID, cv: man.CatalogVersion}
	state, err := st.NewStateLink(viewer, link)
	if err != nil {
		return nil, err
	}
	n := len(man.Segments)
	if c.cfg.MaxSegments > 0 && c.cfg.MaxSegments < n {
		n = c.cfg.MaxSegments
	}
	report := &SessionReport{VideoID: videoID}

	// Open the session's flight-recorder ring (nil when unsampled or the
	// recorder is absent — every Record below is then one branch).
	var fs *obs.FlightSession
	if c.cfg.Flight != nil {
		id := c.cfg.ClientID
		if id == "" {
			id = fmt.Sprintf("video-%d", videoID)
		}
		fs = c.cfg.Flight.Session(id)
		defer fs.Close()
		fs.Record(obs.FlightEvent{Kind: obs.FlightJoin, Seg: -1})
	}

	for seg := 0; seg < n; seg++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("httpstream: session cancelled at segment %d: %w", seg, err)
		}
		link.ctx, link.span = ctx, nil
		if c.obs != nil {
			link.span = c.obs.tracer.Start(fmt.Sprintf("%s/seg%d", c.cfg.ClientID, seg))
			// Mint a fresh trace per segment and re-parent the context so
			// every download attempt carries it across the wire.
			link.span.WithTrace(obs.TraceContext{})
			link.ctx = obs.WithTraceContext(ctx, link.span.TraceContext())
		}
		if _, err := st.Step(state); err != nil {
			return nil, err
		}
		rows := state.PerSegment()
		ev := rows[len(rows)-1]
		report.Add(ev)
		if fs != nil {
			fs.RecordSegment(ev.WallSec, ev.Segment, ev.DownloadSec, ev.StallSec, state.EstimateBps(), ev.Abandoned)
		}
		c.emitTelemetry(videoID, ev, link.span)
	}
	fs.Record(obs.FlightEvent{TimeSec: state.WallSec(), Kind: obs.FlightLeave, Seg: -1})
	return report, nil
}

// stepper builds the session core for a manifest: the paper's
// configuration over the catalogue rebuilt from the manifest, which must
// advertise the grid, source rate, qualities and rates the client prices.
func (c *Client) stepper(man *Manifest) (*sim.Stepper, error) {
	scheme := sim.SchemePtile
	if c.cfg.UseMPC {
		scheme = sim.SchemeOurs
	}
	cfg, err := sim.DefaultConfig(scheme, c.cfg.Phone)
	if err != nil {
		return nil, err
	}
	if c.cfg.UseMPC {
		cfg.FrameRates = man.FrameRates
	}
	switch {
	case man.GridRows != cfg.Grid.Rows || man.GridCols != cfg.Grid.Cols:
		return nil, fmt.Errorf("httpstream: manifest grid_rows x grid_cols %dx%d, client prices %dx%d", man.GridRows, man.GridCols, cfg.Grid.Rows, cfg.Grid.Cols)
	case man.SourceFPS != cfg.Encoder.FrameRate:
		return nil, fmt.Errorf("httpstream: manifest source_fps %g, client prices %g", man.SourceFPS, cfg.Encoder.FrameRate)
	case man.Qualities != int(video.MaxQuality):
		return nil, fmt.Errorf("httpstream: manifest qualities %d, client prices %d", man.Qualities, int(video.MaxQuality))
	case slices.ContainsFunc(cfg.FrameRates, func(f float64) bool { return !slices.Contains(man.FrameRates, f) }):
		return nil, fmt.Errorf("httpstream: manifest frame_rates %v lack a rate of %v", man.FrameRates, cfg.FrameRates)
	}
	cfg.SegmentSec = man.SegmentSec
	cfg.Estimator = c.cfg.Estimator
	cfg.RecordSegments = true
	return sim.NewStepper(man.catalog(), cfg)
}

// emitTelemetry closes the segment span, feeds the segment's event to the
// registry, and invokes the callback.
func (c *Client) emitTelemetry(videoID int, ev sim.SegmentTrace, span *obs.Span) {
	if span != nil {
		span.Stage("account")
		span.End()
	}
	c.obs.observe(ev)
	if c.cfg.Telemetry != nil {
		c.cfg.Telemetry(SegmentEvent{Session: c.cfg.ClientID, Video: videoID, SegmentTrace: ev})
	}
}

// unshapedPriorBps is the bandwidth an unshaped session reports before its
// first download: it has no model to ask.
const unshapedPriorBps = 5e6

// httpLink is the session step's download path over HTTP (sim.Link): the
// retry, backoff and degradation-ladder loop, with every attempt charged
// the session time of the client's bandwidth model.
type httpLink struct {
	c     *Client
	video int
	cv    int64
	// ctx and span belong to the segment being stepped; the session loop
	// sets them before each step.
	ctx  context.Context
	span *obs.Span
}

// RateAt reports the bandwidth model's rate at time t.
func (l *httpLink) RateAt(t float64) float64 {
	switch {
	case l.c.cfg.Net != nil:
		return l.c.cfg.Net.RateAt(t)
	case l.c.cfg.Shape != nil:
		return l.c.cfg.Shape.At(t)
	}
	return unshapedPriorBps
}

// Packets returns the emulated packets of the delivering attempt.
func (l *httpLink) Packets() []netem.PacketSample {
	if l.c.cfg.Net == nil {
		return nil
	}
	return l.c.cfg.Net.Packets()
}

// Download fetches the segment over HTTP, timing the stage between the
// step's decision and its accounting.
func (l *httpLink) Download(f *sim.Fetch) error {
	if l.span != nil {
		l.span.Stage("decide")
	}
	err := l.fetch(f)
	if l.span != nil {
		l.span.Stage("download")
	}
	return err
}

// fetch walks the degradation ladder: each rung gets the retry budget, and
// when every rung is exhausted the segment is abandoned rather than failing
// the session. Only context cancellation, permanent (4xx) errors and a
// failed bandwidth model propagate.
func (l *httpLink) fetch(f *sim.Fetch) error {
	var lastErr error
	for rung, opt := range degradeLadder(f.Options, f.Chosen) {
		for attempt := 0; attempt < l.c.retry.MaxAttempts; attempt++ {
			if attempt > 0 {
				if err := l.c.backoffWait(l.ctx, attempt, lastErr); err != nil {
					return fmt.Errorf("httpstream: segment %d: %w", f.Segment, err)
				}
			}
			nBytes, wall, err := l.get(f, opt)
			bits := opt.SizeBits
			if err != nil {
				bits = float64(nBytes * 8)
			}
			sec, merr := l.charge(bits, f.StartSec+f.WastedSec, wall)
			if merr != nil {
				return fmt.Errorf("httpstream: segment %d: %w", f.Segment, merr)
			}
			if err == nil {
				f.Used, f.DownloadSec, f.DegradeSteps = opt, sec, rung
				return nil
			}
			f.Retries++
			f.WastedSec += sec
			lastErr = err
			if l.ctx.Err() != nil {
				return fmt.Errorf("httpstream: segment %d: %w", f.Segment, l.ctx.Err())
			}
			if !retryable(err) {
				return err
			}
		}
	}
	f.Abandoned = true
	return nil
}

// charge returns the session seconds an attempt that moved bits, starting
// at startSec, costs: the emulated transfer time under Net, the trace
// integral under Shape, and the measured wall time unshaped or when
// nothing arrived. A modeled transfer is also slept, divided by
// TimeCompression, so the session runs at link speed.
func (l *httpLink) charge(bits, startSec, wallSec float64) (float64, error) {
	var sec float64
	var err error
	switch {
	case bits > 0 && l.c.cfg.Net != nil:
		sec, err = l.c.cfg.Net.Download(bits, startSec)
	case bits > 0 && l.c.cfg.Shape != nil:
		sec, err = l.c.cfg.Shape.DownloadTime(bits, startSec)
	default:
		return wallSec, nil
	}
	if err != nil {
		return 0, err
	}
	compression := l.c.cfg.TimeCompression
	if compression == 0 {
		compression = 1
	}
	return sec, sleepCtx(l.ctx, time.Duration(sec/compression*float64(time.Second)))
}

// degradeLadder orders the fallback rungs for a segment: the controller's
// choice first, then every cheaper (smaller) version by descending size,
// ending at the smallest. Repeated failure walks down this ladder.
func degradeLadder(options []abr.OptionMeta, chosen abr.OptionMeta) []abr.OptionMeta {
	rungs := make([]abr.OptionMeta, 0, len(options))
	for _, o := range options {
		if o.Option == chosen.Option || o.SizeBits < chosen.SizeBits {
			rungs = append(rungs, o)
		}
	}
	sort.SliceStable(rungs, func(i, j int) bool {
		if rungs[i].Option == chosen.Option {
			return true
		}
		if rungs[j].Option == chosen.Option {
			return false
		}
		return rungs[i].SizeBits > rungs[j].SizeBits
	})
	return rungs
}

// bodySink discards segment bodies. Hiding io.Discard's ReadFrom makes
// io.CopyBuffer read through a pooled 64 KiB chunk.
var bodySink io.Writer = struct{ io.Writer }{io.Discard}

// get GETs one segment version and reads its body, returning the byte count
// and the wall seconds the body took to arrive. On failure the partial byte
// count and time are still returned so the attempt can be charged.
func (l *httpLink) get(f *sim.Fetch, opt abr.OptionMeta) (int64, float64, error) {
	u := fmt.Sprintf("%s/segment?video=%d&seg=%d&q=%d&f=%s",
		l.c.cfg.BaseURL, l.video, f.Segment, int(opt.Quality),
		strconv.FormatFloat(opt.FrameRate, 'f', -1, 64))
	if l.cv > 0 {
		// Pin the session to the catalogue generation its manifest was cut
		// from: hot swaps must not change the Ptile geometry under a
		// session mid-stream.
		u += fmt.Sprintf("&cv=%d", l.cv)
	}
	if f.Ptile >= 0 {
		u += fmt.Sprintf("&ptile=%d", f.Ptile)
	} else {
		u += fmt.Sprintf("&cx=%g&cy=%g", f.Center.X, f.Center.Y)
	}
	resp, err := l.c.get(l.ctx, u)
	if err != nil {
		return 0, 0, fmt.Errorf("httpstream: segment %d: %w", f.Segment, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, 0, fmt.Errorf("httpstream: segment %d: %w", f.Segment, newStatusError(resp))
	}
	hdr, err := ParseSegmentHeader(resp.Header)
	if err != nil {
		return 0, 0, fmt.Errorf("httpstream: segment %d: %w", f.Segment, err)
	}
	// The body must be exactly the priced size: the bits the step charges.
	want := sim.SegmentBytes(opt.SizeBits)
	if hdr.ContentLength >= 0 && hdr.ContentLength != want {
		return 0, 0, fmt.Errorf("httpstream: segment %d: declared %d bytes, priced at %d", f.Segment, hdr.ContentLength, want)
	}

	start := time.Now()
	// The bytes are only counted, so any pooled chunk will do.
	buf := chunkPool.Get().(*[chunkSize]byte)
	defer chunkPool.Put(buf)
	// Read at most one byte past the price, so an overlong body shows.
	nBytes, err := io.CopyBuffer(bodySink, io.LimitReader(resp.Body, want+1), buf[:])
	switch {
	case err != nil:
	case nBytes < want:
		err = fmt.Errorf("truncated body: %d of %d bytes: %w", nBytes, want, io.ErrUnexpectedEOF)
	case nBytes > want:
		err = fmt.Errorf("body exceeds the priced %d bytes", want)
	}
	wall := time.Since(start).Seconds()
	if err != nil {
		return nBytes, wall, fmt.Errorf("httpstream: segment %d read: %w", f.Segment, err)
	}
	return nBytes, wall, nil
}
