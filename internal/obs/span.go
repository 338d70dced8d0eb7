package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The span recorder is deliberately lighter than a distributed tracer:
// process-local, fixed stage names, no sampling decisions. Each Tracer owns
// one lifecycle (the server request path, the client segment path), each
// Span is one pass through it, and every stage transition lands in a
// per-stage latency histogram plus a bounded ring of recent spans for
// /debug/spans inspection. Spans can additionally join a cross-tier trace
// (WithTrace): the record then carries trace/span/parent ids and a SpanHub
// can stitch the tiers of one request back together.

// StageRecord is one timed stage within a completed span.
type StageRecord struct {
	// Stage names the lifecycle step (e.g. "admission", "download").
	Stage string `json:"stage"`
	// Seconds is the stage latency.
	Seconds float64 `json:"seconds"`
}

// SpanRecord is one completed span in the recent-spans ring.
type SpanRecord struct {
	// Name is the tracer's lifecycle name.
	Name string `json:"name"`
	// ID is the request/session-scoped identifier, when one was attached.
	ID string `json:"id,omitempty"`
	// TraceID, SpanID, and ParentID place the span in a cross-tier trace
	// when WithTrace joined one.
	TraceID  string `json:"trace_id,omitempty"`
	SpanID   string `json:"span_id,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	// StartUnixNano orders spans of one trace across tracers.
	StartUnixNano int64 `json:"start_unix_nano,omitempty"`
	// Stages lists the recorded stage latencies in order.
	Stages []StageRecord `json:"stages"`
	// TotalSeconds is the span's start→end latency.
	TotalSeconds float64 `json:"total_seconds"`
}

// defaultRingCap bounds the recent-spans ring per tracer unless SetRingSize
// overrides it.
const defaultRingCap = 128

// Tracer records spans for one lifecycle and owns its histograms.
type Tracer struct {
	name    string
	reg     *Registry
	total   *Histogram
	dropped *Counter

	hmu    sync.Mutex
	stages map[string]*Histogram

	rmu  sync.Mutex
	cap  int
	ring []SpanRecord
	next int
}

// NewTracer builds a tracer named name, registering its histograms on reg:
// <name>_stage_seconds{stage=...} per stage, <name>_span_seconds for the
// whole lifecycle, and spans_dropped_total{tracer=name} counting ring
// evictions.
func NewTracer(reg *Registry, name string) *Tracer {
	return &Tracer{
		name:    name,
		reg:     reg,
		total:   reg.Histogram(name+"_span_seconds", "Total latency of one "+name+" lifecycle.", nil),
		dropped: reg.Counter("spans_dropped_total", "Completed spans evicted from a tracer's recent ring.", L("tracer", name)),
		stages:  make(map[string]*Histogram),
		cap:     defaultRingCap,
	}
}

// SetRingSize resizes the recent-spans ring (default 128). The most recent
// min(n, held) spans are kept. n < 1 is ignored.
func (t *Tracer) SetRingSize(n int) {
	if n < 1 {
		return
	}
	t.rmu.Lock()
	defer t.rmu.Unlock()
	recent := t.recentLocked()
	if len(recent) > n {
		recent = recent[len(recent)-n:]
	}
	t.cap = n
	t.ring = make([]SpanRecord, 0, n)
	t.ring = append(t.ring, recent...)
	t.next = len(recent)
}

// RingSize returns the current ring capacity.
func (t *Tracer) RingSize() int {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	return t.cap
}

// Name returns the tracer's lifecycle name.
func (t *Tracer) Name() string { return t.name }

// stageHist returns (registering on first use) the stage's histogram.
func (t *Tracer) stageHist(stage string) *Histogram {
	t.hmu.Lock()
	h, ok := t.stages[stage]
	if !ok {
		h = t.reg.Histogram(t.name+"_stage_seconds",
			"Per-stage latency of the "+t.name+" lifecycle.", nil, L("stage", stage))
		t.stages[stage] = h
	}
	t.hmu.Unlock()
	return h
}

// Span is one in-flight pass through the tracer's lifecycle. It is not
// goroutine-safe: a span belongs to the goroutine driving the lifecycle.
type Span struct {
	t        *Tracer
	id       string
	traceID  string
	spanID   string
	parentID string
	start    time.Time
	mark     time.Time
	rec      []StageRecord
	done     bool
}

// Start opens a span. id may be "" (attach one later with SetID).
func (t *Tracer) Start(id string) *Span {
	now := time.Now()
	return &Span{t: t, id: id, start: now, mark: now}
}

// SetID attaches the request/session identifier after the fact.
func (s *Span) SetID(id string) { s.id = id }

// WithTrace joins the span to a cross-tier trace: it adopts tc's trace id
// (minting a fresh one when tc is empty), records tc's span as its parent,
// and mints its own span id. Returns s for chaining.
func (s *Span) WithTrace(tc TraceContext) *Span {
	if tc.TraceID == "" {
		tc.TraceID = NewTraceID()
	}
	s.traceID = tc.TraceID
	s.parentID = tc.SpanID
	if s.spanID == "" {
		s.spanID = NewSpanID()
	}
	return s
}

// TraceContext returns the span's position for downstream propagation:
// same trace, this span as parent. Zero when WithTrace was never called.
func (s *Span) TraceContext() TraceContext {
	return TraceContext{TraceID: s.traceID, SpanID: s.spanID}
}

// TraceID returns the trace id joined by WithTrace, or "".
func (s *Span) TraceID() string { return s.traceID }

// Stage closes the current stage: the time since the previous mark (or the
// span start) is observed into the stage's histogram and recorded.
func (s *Span) Stage(stage string) {
	now := time.Now()
	d := now.Sub(s.mark).Seconds()
	s.mark = now
	s.t.stageHist(stage).Observe(d)
	s.rec = append(s.rec, StageRecord{Stage: stage, Seconds: d})
}

// End closes the span, observing the total latency and pushing the record
// into the recent ring. End is idempotent.
func (s *Span) End() {
	if s.done {
		return
	}
	s.done = true
	total := time.Since(s.start).Seconds()
	s.t.total.Observe(total)
	s.t.push(SpanRecord{
		Name:          s.t.name,
		ID:            s.id,
		TraceID:       s.traceID,
		SpanID:        s.spanID,
		ParentID:      s.parentID,
		StartUnixNano: s.start.UnixNano(),
		Stages:        s.rec,
		TotalSeconds:  total,
	})
}

func (t *Tracer) push(r SpanRecord) {
	t.rmu.Lock()
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, r)
	} else {
		t.ring[t.next%t.cap] = r
		t.dropped.Inc()
	}
	t.next++
	t.rmu.Unlock()
}

// recent returns the most recent completed spans, oldest first.
func (t *Tracer) recent() []SpanRecord {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	return t.recentLocked()
}

func (t *Tracer) recentLocked() []SpanRecord {
	out := make([]SpanRecord, 0, len(t.ring))
	if len(t.ring) < t.cap {
		out = append(out, t.ring...)
		return out
	}
	for i := 0; i < t.cap; i++ {
		out = append(out, t.ring[(t.next+i)%t.cap])
	}
	return out
}

// Handler serves the recent-span ring as JSON — mount it under
// /debug/spans/<name> on the ops mux.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(t.recent())
	})
}

// SpanHub stitches cross-tier traces back together from the rings of every
// registered tracer. It holds tracer pointers only — reading is a snapshot
// of each ring at call time, so a trace is stitchable as long as its spans
// have not been evicted (size the rings via SetRingSize accordingly).
type SpanHub struct {
	mu      sync.Mutex
	tracers []*Tracer
}

// NewSpanHub builds a hub over the given tracers.
func NewSpanHub(tracers ...*Tracer) *SpanHub {
	h := &SpanHub{}
	for _, t := range tracers {
		h.Add(t)
	}
	return h
}

// Add registers another tracer with the hub.
func (h *SpanHub) Add(t *Tracer) {
	if t == nil {
		return
	}
	h.mu.Lock()
	h.tracers = append(h.tracers, t)
	h.mu.Unlock()
}

func (h *SpanHub) snapshot() []*Tracer {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Tracer, len(h.tracers))
	copy(out, h.tracers)
	return out
}

// Trace returns every retained span carrying the trace id, across all
// registered tracers, ordered by start time (ties broken by span id).
func (h *SpanHub) Trace(traceID string) []SpanRecord {
	var out []SpanRecord
	for _, t := range h.snapshot() {
		for _, r := range t.recent() {
			if r.TraceID == traceID {
				out = append(out, r)
			}
		}
	}
	sortSpans(out)
	return out
}

// Traces groups every retained traced span by trace id.
func (h *SpanHub) Traces() map[string][]SpanRecord {
	out := make(map[string][]SpanRecord)
	for _, t := range h.snapshot() {
		for _, r := range t.recent() {
			if r.TraceID != "" {
				out[r.TraceID] = append(out[r.TraceID], r)
			}
		}
	}
	for _, spans := range out {
		sortSpans(spans)
	}
	return out
}

func sortSpans(spans []SpanRecord) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartUnixNano != spans[j].StartUnixNano {
			return spans[i].StartUnixNano < spans[j].StartUnixNano
		}
		return spans[i].SpanID < spans[j].SpanID
	})
}

// Handler serves stitched traces as JSON. Without parameters it returns
// {"traces": {<trace-id>: [spans...]}}; with ?trace=<id> it returns just
// that trace's span list.
func (h *SpanHub) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if id := r.URL.Query().Get("trace"); id != "" {
			json.NewEncoder(w).Encode(h.Trace(id))
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"traces": h.Traces()})
	})
}
