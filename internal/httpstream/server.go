// Package httpstream provides the networked streaming path: an HTTP tile
// server that serves manifests and synthesized segment payloads from a
// prepared catalogue, and a client that runs the paper's controller against
// it over real net/http connections with trace-shaped bandwidth.
//
// The wire format is deliberately simple (JSON manifest + opaque segment
// bodies) — the point is to exercise the full request/response path of a
// tile-based streaming deployment, not to reimplement DASH.
package httpstream

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"

	"ptile360/internal/geom"
	"ptile360/internal/netem"
	"ptile360/internal/power"
	"ptile360/internal/ptile"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// RectJSON is a serializable panorama rectangle.
type RectJSON struct {
	X0 float64 `json:"x0"`
	Y0 float64 `json:"y0"`
	W  float64 `json:"w"`
	H  float64 `json:"h"`
}

func toRectJSON(r geom.Rect) RectJSON { return RectJSON{X0: r.X0, Y0: r.Y0, W: r.W, H: r.H} }
func (r RectJSON) toRect() geom.Rect  { return geom.Rect{X0: r.X0, Y0: r.Y0, W: r.W, H: r.H} }

// SegmentMetaJSON is the per-segment manifest entry: the content metadata
// the size model prices a segment from, and the segment's Ptile rects in
// catalogue order (a segment request's ptile parameter indexes them).
type SegmentMetaJSON struct {
	SI     float64    `json:"si"`
	TI     float64    `json:"ti"`
	Jitter float64    `json:"jitter"`
	Ptiles []RectJSON `json:"ptiles"`
}

// Manifest describes one video to the client.
type Manifest struct {
	VideoID    int               `json:"video_id"`
	SegmentSec float64           `json:"segment_sec"`
	Segments   []SegmentMetaJSON `json:"segments"`
	Qualities  int               `json:"qualities"`
	FrameRates []float64         `json:"frame_rates"`
	SourceFPS  float64           `json:"source_fps"`
	GridRows   int               `json:"grid_rows"`
	GridCols   int               `json:"grid_cols"`
	// CatalogVersion is the catalog set the manifest was cut from. Clients
	// pin their segment requests to it (the cv query parameter) so an
	// in-flight session keeps streaming the catalogue it started on across
	// hot swaps.
	CatalogVersion int64 `json:"catalog_version,omitempty"`
}

// catalog rebuilds the served catalogue from the manifest — content and
// Ptile rects per segment, in the server's order — so a client prices and
// indexes exactly what the server serves.
func (m *Manifest) catalog() *sim.Catalog {
	cat := &sim.Catalog{
		Video:      video.Profile{ID: m.VideoID},
		SegmentSec: m.SegmentSec,
		Content:    make([]video.SegmentContent, len(m.Segments)),
		Ptiles:     make([][]ptile.Ptile, len(m.Segments)),
		Ftiles:     make([][]sim.FtileGroup, len(m.Segments)),
	}
	for k, seg := range m.Segments {
		cat.Content[k] = video.SegmentContent{SI: seg.SI, TI: seg.TI, Jitter: seg.Jitter}
		for _, r := range seg.Ptiles {
			cat.Ptiles[k] = append(cat.Ptiles[k], ptile.Ptile{Rect: r.toRect()})
		}
	}
	return cat
}

// maxCatalogHistory bounds how many superseded catalog versions stay
// resolvable after hot swaps; requests pinned to an evicted version get
// 410 Gone and must refetch the manifest.
const maxCatalogHistory = 8

// catalogSet is one immutable published catalogue generation: each video's
// catalogue as a sim.Pricer, resolved when it was published. Readers load
// it with a single atomic pointer read — no lock anywhere on the request
// hot path — and resolve pinned versions through the history map, which is
// never mutated after publication.
type catalogSet struct {
	version  int64
	catalogs map[int]*sim.Pricer
	// history resolves still-supported older versions (most recent
	// maxCatalogHistory generations).
	history map[int64]map[int]*sim.Pricer
}

// resolve returns the catalogue map for a pinned version (version 0 means
// "current").
func (cs *catalogSet) resolve(version int64) (map[int]*sim.Pricer, bool) {
	if version == 0 || version == cs.version {
		return cs.catalogs, true
	}
	m, ok := cs.history[version]
	return m, ok
}

// Server serves manifests and segments for a set of prepared catalogues.
// The active catalogue generation sits behind an atomic pointer so
// SwapCatalog can publish a new one with zero downtime: requests in flight
// (and sessions pinned via cv) keep reading the generation they started on.
type Server struct {
	mux    *http.ServeMux
	cats   atomic.Pointer[catalogSet]
	swapMu sync.Mutex // serializes writers; readers never take it
	// cfg is the session configuration every catalogue is priced under;
	// its scheme and phone do not enter a price.
	cfg    sim.Config
	inst   *serverObs // nil until Instrument
	pacing atomic.Pointer[pacingState]
	sink   atomic.Pointer[ViewportSink]
}

// pacingState is one published paced-sender configuration; swapped
// atomically so in-flight requests see a consistent (rate, metrics) pair.
type pacingState struct {
	rateBps float64
	metrics *netem.PacerMetrics
}

// ViewportSink receives one viewport report per served segment: the video,
// segment index, and the panorama-degree center the client fetched for. The
// online Ptile pipeline (internal/ptilelive) ingests exactly this shape. It
// is called on the request goroutine; keep it fast.
type ViewportSink func(video, segment int, x, y float64)

// NewServer builds a server over the given catalogues. It prices segments
// as a sim session does (sim.DefaultConfig with enc), and frameRates is the
// Ptile frame-rate ladder it advertises and serves.
func NewServer(catalogs map[int]*sim.Catalog, enc video.EncoderConfig, frameRates []float64) (*Server, error) {
	if len(catalogs) == 0 {
		return nil, fmt.Errorf("httpstream: no catalogues")
	}
	cfg, err := sim.DefaultConfig(sim.SchemeOurs, power.Pixel3)
	if err != nil {
		return nil, err
	}
	cfg.Encoder, cfg.FrameRates = enc, frameRates
	s := &Server{mux: http.NewServeMux(), cfg: cfg}
	priced := make(map[int]*sim.Pricer, len(catalogs))
	for id, cat := range catalogs {
		if priced[id], err = sim.NewPricer(cat, s.cfg); err != nil {
			return nil, fmt.Errorf("httpstream: video %d: %w", id, err)
		}
	}
	s.cats.Store(&catalogSet{version: 1, catalogs: priced})
	s.mux.HandleFunc("/manifest", s.handleManifest)
	s.mux.HandleFunc("/segment", s.handleSegment)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.inst != nil {
		s.inst.serve(s.mux, w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// SwapCatalog atomically publishes a new catalogue for one video and
// returns the new generation's version. Every other video keeps its current
// catalogue; the superseded generation stays resolvable for pinned sessions
// until it ages out of the bounded history. A catalogue the server cannot
// price is refused with an error and nothing is published. Concurrent swaps
// serialize on swapMu; readers are wait-free (one atomic load per request).
func (s *Server) SwapCatalog(cat *sim.Catalog) (int64, error) {
	pr, err := sim.NewPricer(cat, s.cfg)
	if err != nil {
		return 0, err
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	old := s.cats.Load()
	next := &catalogSet{
		version:  old.version + 1,
		catalogs: make(map[int]*sim.Pricer, len(old.catalogs)+1),
		history:  make(map[int64]map[int]*sim.Pricer, len(old.history)+1),
	}
	for id, c := range old.catalogs {
		next.catalogs[id] = c
	}
	next.catalogs[cat.Video.ID] = pr
	for v, m := range old.history {
		if v > next.version-maxCatalogHistory {
			next.history[v] = m
		}
	}
	if old.version > next.version-maxCatalogHistory {
		next.history[old.version] = old.catalogs
	}
	s.cats.Store(next)
	return next.version, nil
}

// CatalogVersion returns the currently published generation.
func (s *Server) CatalogVersion() int64 { return s.cats.Load().version }

// SetPacing throttles segment payload writes to rateBps bits/s through the
// interval-budget pacer (netem.PacedWriter): bodies leave in MTU-sized
// quanta at the target rate instead of one burst, which keeps a shared
// bottleneck queue shallow. rateBps 0 restores unpaced writes. m optionally
// publishes the pacing_* instruments; nil is silent.
func (s *Server) SetPacing(rateBps float64, m *netem.PacerMetrics) error {
	if rateBps == 0 {
		s.pacing.Store(nil)
		return nil
	}
	// Construct a probe writer up front so a bad rate fails here, not per
	// request.
	if _, err := netem.NewPacer(rateBps, 0); err != nil {
		return err
	}
	s.pacing.Store(&pacingState{rateBps: rateBps, metrics: m})
	return nil
}

// SetViewportSink publishes the per-segment viewport report callback; nil
// disables reporting.
func (s *Server) SetViewportSink(sink ViewportSink) {
	if sink == nil {
		s.sink.Store(nil)
		return
	}
	s.sink.Store(&sink)
}

// report forwards one served segment's viewport center to the sink, if set.
func (s *Server) report(video, segment int, x, y float64) {
	if p := s.sink.Load(); p != nil {
		(*p)(video, segment, x, y)
	}
}

// catalogFor resolves the request's catalogue from its parsed query: the
// video parameter selects the video, and the optional cv parameter pins the
// catalogue generation a session started on. An evicted generation answers
// 410 Gone — the signal to refetch the manifest.
func (s *Server) catalogFor(w http.ResponseWriter, qy url.Values) (*sim.Pricer, int64, bool) {
	id, err := strconv.Atoi(qy.Get("video"))
	if err != nil || id < 0 {
		http.Error(w, "bad or missing video parameter", http.StatusBadRequest)
		return nil, 0, false
	}
	set := s.cats.Load()
	version := set.version
	if cvs := qy.Get("cv"); cvs != "" {
		v, err := strconv.ParseInt(cvs, 10, 64)
		if err != nil || v < 1 {
			http.Error(w, "bad catalog version", http.StatusBadRequest)
			return nil, 0, false
		}
		version = v
	}
	catalogs, ok := set.resolve(version)
	if !ok {
		http.Error(w, fmt.Sprintf("catalog version %d no longer served", version), http.StatusGone)
		return nil, 0, false
	}
	pr, ok := catalogs[id]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown video %d", id), http.StatusNotFound)
		return nil, 0, false
	}
	return pr, version, true
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	pr, version, ok := s.catalogFor(w, r.URL.Query())
	if !ok {
		return
	}
	cat := pr.Catalog()
	m := Manifest{
		VideoID:        cat.Video.ID,
		SegmentSec:     cat.SegmentSec,
		Qualities:      int(video.MaxQuality),
		FrameRates:     s.cfg.FrameRates,
		SourceFPS:      s.cfg.Encoder.FrameRate,
		GridRows:       s.cfg.Grid.Rows,
		GridCols:       s.cfg.Grid.Cols,
		CatalogVersion: version,
	}
	for seg := range cat.Content {
		sm := SegmentMetaJSON{SI: cat.Content[seg].SI, TI: cat.Content[seg].TI, Jitter: cat.Content[seg].Jitter}
		for _, pt := range cat.Ptiles[seg] {
			sm.Ptiles = append(sm.Ptiles, toRectJSON(pt.Rect))
		}
		m.Segments = append(m.Segments, sm)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(m); err != nil {
		// The response is already partially written; nothing to recover.
		return
	}
}

// handleSegment serves one segment version: sim.SegmentBytes of its
// sim.Pricer price in filler bytes. Query parameters:
//
//	video, seg           — segment address
//	q                    — quality level 1..5
//	f                    — frame rate, 0 or absent for the source rate: a
//	                       Ptile request names a rate on the manifest's
//	                       ladder, a conventional request the source rate;
//	                       any other rate is a 400
//	cv                   — catalogue generation the session is pinned to
//	                       (absent → current; evicted → 410)
//	ptile                — Ptile index within the segment: the response is
//	                       the Ptile plus background blocks; -1 or absent
//	                       serves the conventional tiles around the
//	                       viewport center cx, cy.
func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	qy := r.URL.Query()
	pr, _, ok := s.catalogFor(w, qy)
	if !ok {
		return
	}
	seg, errSeg := strconv.Atoi(qy.Get("seg"))
	q, errQ := strconv.Atoi(qy.Get("q"))
	f, errF := strconv.ParseFloat(cmp.Or(qy.Get("f"), "0"), 64)
	pi, errP := strconv.Atoi(cmp.Or(qy.Get("ptile"), "-1"))
	var center geom.Point
	var errX, errY error
	if pi == -1 {
		center.X, errX = strconv.ParseFloat(qy.Get("cx"), 64)
		center.Y, errY = strconv.ParseFloat(qy.Get("cy"), 64)
	}
	if err := errors.Join(errSeg, errQ, errF, errP, errX, errY); err != nil {
		http.Error(w, "bad segment request: "+err.Error(), http.StatusBadRequest)
		return
	}
	bits, err := pr.Bits(seg, video.Quality(q), f, pi, center)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if pi >= 0 {
		r := pr.Catalog().Ptiles[seg][pi].Rect
		center = geom.Point{X: r.X0 + r.W/2, Y: r.Y0 + r.H/2}
	}
	s.report(pr.Catalog().Video.ID, seg, center.X, center.Y)

	nBytes := sim.SegmentBytes(bits)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(nBytes, 10))
	var dst io.Writer = w
	if ps := s.pacing.Load(); ps != nil {
		pw, err := netem.NewPacedWriter(w, ps.rateBps, nil, nil, ps.metrics)
		if err == nil {
			dst = pw
		}
	}
	writePayload(dst, nBytes)
}

// filler is the read-only segment body pattern: byte k of every body is
// byte(k), because the filler's length is a multiple of 256.
var filler = func() []byte {
	b := make([]byte, chunkSize)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

// writePayload streams nBytes of deterministic filler in slices of the
// shared filler, allocating nothing.
func writePayload(w io.Writer, nBytes int64) {
	for nBytes > 0 {
		n := min(int64(len(filler)), nBytes)
		if _, err := w.Write(filler[:n]); err != nil {
			return
		}
		nBytes -= n
	}
}
