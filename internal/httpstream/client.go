package httpstream

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"ptile360/internal/abr"
	"ptile360/internal/geom"
	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/obs"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/ptile"
	"ptile360/internal/video"
	"ptile360/internal/vmaf"
)

// ClientConfig tunes the streaming client.
type ClientConfig struct {
	// BaseURL is the server address, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Phone selects the power model for the MPC controller.
	Phone power.Phone
	// Shape optionally paces downloads to an LTE trace. Nil means
	// unshaped (full local throughput).
	Shape *lte.Trace
	// Net routes downloads through the in-process packet-level network
	// emulator instead of the segment-level Shape trace: each segment body
	// is read from the server at local speed, then charged the emulated
	// transfer time (packetization, queueing, loss, retransmission) and the
	// per-packet timing is fed to a PacketObserver estimator. Mutually
	// exclusive with Shape.
	Net *netem.SessionNet
	// Estimator selects the bandwidth-estimator family. The zero value
	// means the paper's harmonic mean over a 5-sample window. The
	// delay-gradient kind additionally consumes packet timing when Net is
	// set.
	Estimator predict.EstimatorKind
	// TimeCompression divides the shaping sleep times: 10 means the session
	// runs 10× faster than real time while preserving per-segment
	// throughput accounting. Zero means 1.
	TimeCompression float64
	// MaxSegments caps the number of segments streamed (0 = whole video).
	MaxSegments int
	// UseMPC selects the energy-minimizing controller; false streams with
	// the rate-based baseline.
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
	// NoDegrade disables the degradation ladder: after the retry budget of
	// the chosen rung is exhausted the session fails instead of stepping
	// down to cheaper rungs and, ultimately, abandoning the segment.
	NoDegrade bool
	// ClientID, when set, is sent as the X-Client-Id header so the
	// server's per-client rate limiter can key on the session rather than
	// the shared NAT address. It also labels telemetry records.
	ClientID string
	// Telemetry, when set, receives one record per segment (served or
	// abandoned) as the session progresses — the paper's headline series:
	// bitrate, frame rate, stall, QoE loss, and modeled energy. The
	// callback runs on the streaming goroutine; keep it fast.
	Telemetry func(TelemetryRecord)
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

// SegmentRecord is the client-side accounting of one downloaded segment.
type SegmentRecord struct {
	// Segment is the index.
	Segment int
	// Quality and FrameRate are the chosen version.
	Quality video.Quality
	// FrameRate is in fps.
	FrameRate float64
	// Bytes is the payload size received.
	Bytes int64
	// ThroughputBps is the measured goodput.
	ThroughputBps float64
	// FromPtile reports whether a Ptile served the segment.
	FromPtile bool
	// EnergyMJ is the Eq. 1 energy estimate for the segment.
	EnergyMJ float64
	// PerceivedQuality is the Q(v, f) of the served version.
	PerceivedQuality float64
	// BufferSec is the buffer level when the download started.
	BufferSec float64
	// Emergency reports a stall-accepting controller fallback decision.
	Emergency bool
	// Retries counts failed download attempts before the segment was
	// served (or given up on).
	Retries int
	// DegradeSteps counts ladder rungs dropped below the controller's
	// choice before an attempt succeeded.
	DegradeSteps int
	// Abandoned reports that every rung failed and playback skipped the
	// segment.
	Abandoned bool
	// StallSec is the rebuffering time charged to this segment, including
	// the deadline miss of an abandoned segment.
	StallSec float64
	// BestPerceivedQuality is the highest Q(v, f) any offered version had —
	// the reference the per-segment QoE loss is measured against.
	BestPerceivedQuality float64
	// TxEnergyMJ and DecodeEnergyMJ split the Eq. 1 estimate into its
	// transmission and decode terms (render is the remainder).
	TxEnergyMJ     float64
	DecodeEnergyMJ float64
	// ViewCenter is the predicted viewport center the segment was fetched
	// for — the viewport report the online Ptile pipeline clusters.
	ViewCenter geom.Point
}

// SessionReport summarizes a client streaming run.
type SessionReport struct {
	VideoID  int
	Segments []SegmentRecord
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

// Client streams a video from a Server, driving the paper's controller over
// real HTTP. It survives flaky transports: per-request timeouts, bounded
// retries with exponential backoff and jitter, and a degradation ladder
// that steps down to cheaper rungs — abandoning a segment only when every
// rung has failed — so an unreliable network degrades the session instead
// of killing it.
type Client struct {
	cfg     ClientConfig
	http    *http.Client
	pm      power.Model
	mpc     *abr.EnergyMPC
	rate    *abr.RateBased
	enc     video.EncoderConfig
	grid    geom.Grid
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
	pm, err := power.TableI(cfg.Phone)
	if err != nil {
		return nil, err
	}
	mpc, err := abr.NewEnergyMPC(abr.DefaultConfig(pm.Tx))
	if err != nil {
		return nil, err
	}
	rb, err := abr.NewRateBased(0.9)
	if err != nil {
		return nil, err
	}
	grid, err := geom.NewGrid(4, 8)
	if err != nil {
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
		pm:      pm,
		mpc:     mpc,
		rate:    rb,
		enc:     video.DefaultEncoderConfig(),
		grid:    grid,
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
func (c *Client) StreamContext(ctx context.Context, videoID int, viewer *headtrace.Trace) (*SessionReport, error) {
	if viewer == nil || len(viewer.Samples) == 0 {
		return nil, fmt.Errorf("httpstream: empty viewer trace")
	}
	man, err := c.FetchManifestContext(ctx, videoID)
	if err != nil {
		return nil, err
	}
	n := len(man.Segments)
	if c.cfg.MaxSegments > 0 && c.cfg.MaxSegments < n {
		n = c.cfg.MaxSegments
	}

	kind := c.cfg.Estimator
	if kind == 0 {
		kind = predict.EstimatorHarmonic
	}
	bw, err := predict.NewEstimator(kind, 5)
	if err != nil {
		return nil, err
	}
	xs, ys := viewer.XYSeries()
	report := &SessionReport{VideoID: videoID}
	buffer := 0.0
	virtual := 0.0 // virtual wall-clock (seconds) for trace shaping

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
		var span *obs.Span
		segCtx := ctx
		if c.obs != nil {
			span = c.obs.tracer.Start(fmt.Sprintf("%s/seg%d", c.cfg.ClientID, seg))
			// Mint a fresh trace per segment and re-parent the context so
			// every download attempt carries it across the wire.
			span.WithTrace(obs.TraceContext{})
			segCtx = obs.WithTraceContext(ctx, span.TraceContext())
		}
		// Viewport prediction from played history.
		played := float64(seg)*man.SegmentSec - buffer
		if played < 0 {
			played = 0
		}
		idx := int(played * headtrace.SampleRate)
		var center geom.Point
		if idx < 2 {
			center = geom.PointOf(viewer.Samples[0].O)
		} else {
			if idx > len(xs) {
				idx = len(xs)
			}
			horizon := (float64(seg)+0.5)*man.SegmentSec - played
			if horizon > 1 {
				horizon = 1
			}
			p, err := predict.Viewport(xs[:idx], ys[:idx], horizon, predict.DefaultViewportConfig())
			if err != nil {
				p = geom.PointOf(viewer.Samples[idx-1].O)
			}
			center = p
		}

		if span != nil {
			span.Stage("predict")
		}

		// Pick the serving Ptile from the manifest.
		ptIdx, ptRect := c.pickPtile(man, seg, center)

		// Decide the version.
		rateEst := 5e6
		if bw.Ready() {
			if est, err := bw.Estimate(); err == nil {
				rateEst = est
			}
		}
		speedEst := 0.0
		if seg > 0 {
			if sp, err := viewer.SegmentPeakSpeed(seg-1, man.SegmentSec); err == nil {
				speedEst = sp
			}
		}
		options, err := c.options(man, seg, ptIdx >= 0, ptRect, speedEst)
		if err != nil {
			return nil, err
		}
		var decision abr.Decision
		if c.cfg.UseMPC {
			decision, err = c.mpc.Decide(buffer, rateEst, []abr.SegmentMeta{{Options: options}})
		} else {
			decision, err = c.rate.Decide(buffer, rateEst, options)
		}
		if err != nil {
			return nil, err
		}
		bestQ := 0.0
		for _, o := range options {
			if o.PerceivedQuality > bestQ {
				bestQ = o.PerceivedQuality
			}
		}
		if span != nil {
			span.Stage("decide")
		}

		// Download over HTTP with retries and the degradation ladder,
		// pacing reads against the shaping trace.
		out, err := c.downloadResilient(segCtx, videoID, seg, man.CatalogVersion, degradeLadder(options, decision.Chosen), ptIdx, center, &virtual)
		if span != nil {
			span.Stage("download")
		}
		if err != nil {
			return nil, err
		}
		bufferBefore := buffer

		if out.abandoned {
			// Every rung failed: playback skips the segment. The deadline
			// miss freezes the display for the segment duration on top of
			// whatever buffer the failed attempts burned.
			stall := out.wasted - bufferBefore
			if stall < 0 {
				stall = 0
			}
			stall += man.SegmentSec
			if buffer -= out.wasted; buffer < 0 {
				buffer = 0
			}
			rec := SegmentRecord{
				Segment:              seg,
				Abandoned:            true,
				Retries:              out.retries,
				BufferSec:            bufferBefore,
				StallSec:             stall,
				BestPerceivedQuality: bestQ,
				ViewCenter:           center,
			}
			report.Segments = append(report.Segments, rec)
			report.TotalRetries += out.retries
			report.AbandonedSegments++
			report.Stalls++
			report.TotalStallSec += stall
			report.TotalQoELoss += 1
			if fs != nil {
				now := float64(seg) * man.SegmentSec
				fs.Record(obs.FlightEvent{TimeSec: now, Kind: obs.FlightStall, Seg: int32(seg), V1: stall})
				fs.Record(obs.FlightEvent{TimeSec: now, Kind: obs.FlightAbandon, Seg: int32(seg), V2: stall, V3: 1})
			}
			c.emitTelemetry(videoID, man.SegmentSec, rec, span)
			continue
		}

		chosen := out.used
		throughput := float64(out.bytes*8) / out.elapsed
		if c.cfg.Net != nil {
			// Feed the successful attempt's wire timing to the estimator
			// before the segment-level sample, mirroring arrival order.
			if po, ok := bw.(predict.PacketObserver); ok {
				for _, ps := range c.cfg.Net.Packets() {
					po.ObservePacket(ps.SendSec, ps.RecvSec, ps.Bytes)
				}
			}
		}
		if err := bw.Observe(throughput); err != nil {
			return nil, err
		}
		spent := out.elapsed + out.wasted
		stall := spent - bufferBefore
		if stall < 0 {
			stall = 0
		}
		if buffer -= spent; buffer < 0 {
			buffer = 0
		}
		buffer += man.SegmentSec
		if buffer > 3+man.SegmentSec {
			buffer = 3 + man.SegmentSec
		}

		e, err := c.pm.Segment(power.PtileScheme, float64(out.bytes*8), throughput, chosen.FrameRate, man.SegmentSec)
		if err != nil {
			return nil, err
		}
		rec := SegmentRecord{
			Segment:              seg,
			Quality:              chosen.Quality,
			FrameRate:            chosen.FrameRate,
			Bytes:                out.bytes,
			ThroughputBps:        throughput,
			FromPtile:            ptIdx >= 0,
			EnergyMJ:             e.Total(),
			TxEnergyMJ:           e.Tx,
			DecodeEnergyMJ:       e.Decode,
			PerceivedQuality:     chosen.PerceivedQuality,
			BestPerceivedQuality: bestQ,
			BufferSec:            bufferBefore,
			Emergency:            decision.Emergency,
			Retries:              out.retries,
			DegradeSteps:         out.degradeSteps,
			StallSec:             stall,
			ViewCenter:           center,
		}
		report.Segments = append(report.Segments, rec)
		report.TotalBytes += out.bytes
		report.TotalEnergyMJ += rec.EnergyMJ
		if rec.FromPtile {
			report.PtileSegments++
		}
		report.TotalRetries += out.retries
		if out.degradeSteps > 0 {
			report.DegradedSegments++
		}
		if stall > 0 {
			report.Stalls++
			report.TotalStallSec += stall
		}
		if bestQ > 0 {
			report.TotalQoELoss += (bestQ - rec.PerceivedQuality) / bestQ
		}
		if fs != nil {
			now := float64(seg) * man.SegmentSec
			if stall > 0 {
				fs.Record(obs.FlightEvent{TimeSec: now, Kind: obs.FlightStall, Seg: int32(seg), V1: stall})
			}
			loss := 0.0
			if bestQ > 0 {
				loss = (bestQ - rec.PerceivedQuality) / bestQ
			}
			fs.Record(obs.FlightEvent{TimeSec: now, Kind: obs.FlightDownload, Seg: int32(seg), V1: float64(rec.Bytes), V2: stall, V3: loss})
		}
		c.emitTelemetry(videoID, man.SegmentSec, rec, span)
	}
	if fs != nil {
		fs.Record(obs.FlightEvent{TimeSec: float64(n) * man.SegmentSec, Kind: obs.FlightLeave, Seg: int32(n)})
	}
	return report, nil
}

// emitTelemetry converts one segment's accounting into a telemetry record,
// feeds the registry, closes the segment span, and invokes the callback.
func (c *Client) emitTelemetry(videoID int, segmentSec float64, rec SegmentRecord, span *obs.Span) {
	if span != nil {
		span.Stage("account")
		span.End()
	}
	if c.obs == nil && c.cfg.Telemetry == nil {
		return
	}
	tr := telemetryFrom(c.cfg.ClientID, videoID, segmentSec, rec)
	c.obs.observe(tr)
	if c.cfg.Telemetry != nil {
		c.cfg.Telemetry(tr)
	}
}

// pickPtile returns the index and rect of the manifest Ptile serving the
// predicted center, or (-1, zero).
func (c *Client) pickPtile(man *Manifest, seg int, center geom.Point) (int, geom.Rect) {
	best := -1
	var bestRect geom.Rect
	bestArea := 1e18
	for i, rj := range man.Segments[seg].Ptiles {
		r := rj.toRect()
		pt := ptile.Ptile{Rect: r}
		if pt.Covers(c.grid, center, 100) && r.Area() < bestArea {
			best, bestRect, bestArea = i, r, r.Area()
		}
	}
	if best >= 0 {
		return best, bestRect
	}
	for i, rj := range man.Segments[seg].Ptiles {
		r := rj.toRect()
		if r.Contains(center) && r.Area() < bestArea {
			best, bestRect, bestArea = i, r, r.Area()
		}
	}
	return best, bestRect
}

// options computes the version ladder for one segment from manifest
// metadata, mirroring the server's size model.
func (c *Client) options(man *Manifest, seg int, havePtile bool, ptRect geom.Rect, speed float64) ([]abr.OptionMeta, error) {
	sc := video.SegmentContent{SI: man.Segments[seg].SI, TI: man.Segments[seg].TI, Jitter: 1}
	frameRates := man.FrameRates
	if !havePtile {
		frameRates = []float64{man.SourceFPS}
	}
	var out []abr.OptionMeta
	for v := video.MinQuality; v <= video.MaxQuality; v++ {
		for _, f := range frameRates {
			var bits float64
			var err error
			if havePtile {
				bits, err = c.enc.TileBits(video.TileSpec{Rect: ptRect, Quality: v, FrameRate: f, Kind: video.KindPtile}, man.SegmentSec, sc)
			} else {
				bits, err = c.enc.RegionBits(0.28125, v, f, video.KindGrid, man.SegmentSec, sc)
			}
			if err != nil {
				return nil, err
			}
			b, err := c.enc.QoEBitrateMbps(v)
			if err != nil {
				return nil, err
			}
			// α = κ·S_fov/TI with the same κ = 6 calibration as the
			// simulator (sim.Config.AlphaScale).
			q, err := vmaf.TableII().PerceivedQuality(sc.SI, sc.TI, b, 6*speed, f, man.SourceFPS)
			if err != nil {
				return nil, err
			}
			dec := c.pm.Decode[power.PtileScheme]
			out = append(out, abr.OptionMeta{
				Option:           abr.Option{Quality: v, FrameRate: f},
				SizeBits:         bits,
				PerceivedQuality: q,
				ProcPowerMW:      dec.At(f) + c.pm.Render.At(f),
			})
		}
	}
	return out, nil
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

// downloadOutcome is the result of the retry/degradation loop for one
// segment.
type downloadOutcome struct {
	bytes        int64
	elapsed      float64 // successful attempt's (virtual) download time
	wasted       float64 // time burned on failed attempts
	used         abr.OptionMeta
	retries      int
	degradeSteps int
	abandoned    bool
}

// downloadResilient walks the degradation ladder: each rung gets the retry
// budget, and when every rung is exhausted the segment is abandoned rather
// than failing the session. Only context cancellation and permanent (4xx)
// errors propagate.
func (c *Client) downloadResilient(ctx context.Context, videoID, seg int, cv int64, ladder []abr.OptionMeta, ptIdx int, center geom.Point, virtual *float64) (downloadOutcome, error) {
	var out downloadOutcome
	var lastErr error
	for rung, opt := range ladder {
		for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
			if attempt > 0 {
				if err := c.backoffWait(ctx, attempt, lastErr); err != nil {
					return out, fmt.Errorf("httpstream: segment %d: %w", seg, err)
				}
			}
			nBytes, elapsed, err := c.downloadOnce(ctx, videoID, seg, cv, opt, ptIdx, center, virtual)
			if err == nil {
				out.bytes, out.elapsed, out.used, out.degradeSteps = nBytes, elapsed, opt, rung
				return out, nil
			}
			out.retries++
			out.wasted += elapsed
			lastErr = err
			if ctx.Err() != nil {
				return out, fmt.Errorf("httpstream: segment %d: %w", seg, ctx.Err())
			}
			if !retryable(err) {
				return out, err
			}
		}
		if c.cfg.NoDegrade {
			return out, fmt.Errorf("httpstream: segment %d failed after %d attempts: %w", seg, out.retries, lastErr)
		}
	}
	out.abandoned = true
	return out, nil
}

// readBufPool recycles the 64 KiB buffers segment bodies are read through;
// the bytes are only counted, so any buffer will do.
var readBufPool = sync.Pool{New: func() any { return new([64 << 10]byte) }}

// downloadOnce GETs one segment version and paces reads against the shaping
// trace, returning the byte count and the (virtual) elapsed seconds. On
// failure the partial byte count and elapsed time are still returned so the
// caller can account the waste.
func (c *Client) downloadOnce(ctx context.Context, videoID, seg int, cv int64, chosen abr.OptionMeta, ptIdx int, center geom.Point, virtual *float64) (int64, float64, error) {
	u := fmt.Sprintf("%s/segment?video=%d&seg=%d&q=%d&f=%s",
		c.cfg.BaseURL, videoID, seg, int(chosen.Quality),
		strconv.FormatFloat(chosen.FrameRate, 'f', -1, 64))
	if cv > 0 {
		// Pin the session to the catalogue generation its manifest was cut
		// from: hot swaps must not change the Ptile geometry under a
		// session mid-stream.
		u += fmt.Sprintf("&cv=%d", cv)
	}
	if ptIdx >= 0 {
		u += fmt.Sprintf("&ptile=%d", ptIdx)
	} else {
		u += fmt.Sprintf("&cx=%g&cy=%g", center.X, center.Y)
	}
	resp, err := c.get(ctx, u)
	if err != nil {
		return 0, 0, fmt.Errorf("httpstream: segment %d: %w", seg, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, 0, fmt.Errorf("httpstream: segment %d: %w", seg, newStatusError(resp))
	}
	hdr, err := ParseSegmentHeader(resp.Header)
	if err != nil {
		return 0, 0, fmt.Errorf("httpstream: segment %d: %w", seg, err)
	}

	start := time.Now()
	var nBytes int64
	var readErr error
	buf := readBufPool.Get().(*[64 << 10]byte)
	defer readBufPool.Put(buf)
	for {
		n, err := resp.Body.Read(buf[:])
		nBytes += int64(n)
		if c.cfg.Shape != nil && n > 0 {
			// Pace against the trace: reading n bytes at rate R takes
			// n·8/R seconds of virtual time.
			rate := c.cfg.Shape.At(*virtual)
			dt := float64(n*8) / rate
			*virtual += dt
			compression := c.cfg.TimeCompression
			if compression == 0 {
				compression = 1
			}
			time.Sleep(time.Duration(dt / compression * float64(time.Second)))
		}
		if nBytes > maxSegmentBytes {
			readErr = fmt.Errorf("body exceeds cap %d", int64(maxSegmentBytes))
			break
		}
		if err == io.EOF {
			if hdr.ContentLength >= 0 && nBytes != hdr.ContentLength {
				readErr = fmt.Errorf("truncated body: %d of %d bytes: %w", nBytes, hdr.ContentLength, io.ErrUnexpectedEOF)
			}
			break
		}
		if err != nil {
			readErr = err
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	switch {
	case c.cfg.Net != nil && nBytes > 0:
		// The body was read at local speed; charge the emulated wire time
		// instead, and advance the session's virtual clock so back-to-back
		// segments see the link schedule at the right offsets.
		dur, derr := c.cfg.Net.Download(float64(nBytes*8), *virtual)
		if derr != nil {
			return nBytes, elapsed, fmt.Errorf("httpstream: segment %d: %w", seg, derr)
		}
		*virtual += dur
		compression := c.cfg.TimeCompression
		if compression == 0 {
			compression = 1
		}
		time.Sleep(time.Duration(dur / compression * float64(time.Second)))
		elapsed = dur
	case c.cfg.Shape != nil:
		// Under shaping, the virtual elapsed time is authoritative.
		elapsed = float64(nBytes*8) / c.cfg.Shape.At(*virtual)
	}
	if elapsed <= 0 {
		elapsed = 1e-6
	}
	if readErr != nil {
		return nBytes, elapsed, fmt.Errorf("httpstream: segment %d read: %w", seg, readErr)
	}
	return nBytes, elapsed, nil
}
