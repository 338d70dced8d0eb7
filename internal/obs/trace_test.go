package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestTraceHeaderRoundTrip: the propagation pair survives header encode /
// decode, and oversized values are clipped.
func TestTraceHeaderRoundTrip(t *testing.T) {
	h := http.Header{}
	TraceContext{TraceID: "t-000001", SpanID: "s-000009"}.SetHeader(h)
	tc, ok := TraceFromHeader(h)
	if !ok || tc.TraceID != "t-000001" || tc.SpanID != "s-000009" {
		t.Fatalf("round trip = %+v, %v", tc, ok)
	}

	// An empty trace id writes nothing, even with a span id set.
	h2 := http.Header{}
	TraceContext{SpanID: "s-1"}.SetHeader(h2)
	if len(h2) != 0 {
		t.Fatalf("empty trace wrote headers: %v", h2)
	}
	if _, ok := TraceFromHeader(h2); ok {
		t.Fatal("empty headers parsed as a trace")
	}

	// Hostile header values are clipped to 64 bytes.
	h3 := http.Header{}
	h3.Set(TraceIDHeader, strings.Repeat("x", 200))
	tc3, ok := TraceFromHeader(h3)
	if !ok || len(tc3.TraceID) != 64 {
		t.Fatalf("clip failed: len=%d ok=%v", len(tc3.TraceID), ok)
	}
}

// TestTraceForRequest: context wins over headers (an in-process upstream tier
// already re-parented), headers are the fallback.
func TestTraceForRequest(t *testing.T) {
	r := httptest.NewRequest("GET", "/segment", nil)
	if _, ok := TraceForRequest(r); ok {
		t.Fatal("untraced request reported a trace")
	}
	r.Header.Set(TraceIDHeader, "t-hdr")
	r.Header.Set(ParentSpanHeader, "s-hdr")
	if tc, ok := TraceForRequest(r); !ok || tc.TraceID != "t-hdr" || tc.SpanID != "s-hdr" {
		t.Fatalf("header fallback = %+v, %v", tc, ok)
	}
	ctx := WithTraceContext(r.Context(), TraceContext{TraceID: "t-ctx", SpanID: "s-ctx"})
	if tc, ok := TraceForRequest(r.WithContext(ctx)); !ok || tc.TraceID != "t-ctx" {
		t.Fatalf("context should win: %+v, %v", tc, ok)
	}
	// An invalid context value falls through to the headers.
	bad := WithTraceContext(context.Background(), TraceContext{})
	if _, ok := TraceFromContext(bad); ok {
		t.Fatal("invalid context trace reported ok")
	}
}

// TestSpanWithTrace: an empty context mints a trace; a populated one is
// adopted with the caller's span as parent; the span's own TraceContext
// re-parents the next hop.
func TestSpanWithTrace(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, "edge")

	minted := tr.Start("req-1").WithTrace(TraceContext{})
	if minted.TraceID() == "" || minted.TraceContext().SpanID == "" {
		t.Fatalf("mint failed: %+v", minted.TraceContext())
	}
	minted.End()

	adopted := tr.Start("req-2").WithTrace(TraceContext{TraceID: "t-up", SpanID: "s-up"})
	if adopted.TraceID() != "t-up" {
		t.Fatalf("adopted trace = %q", adopted.TraceID())
	}
	next := adopted.TraceContext()
	if next.TraceID != "t-up" || next.SpanID == "" || next.SpanID == "s-up" {
		t.Fatalf("downstream context = %+v, want same trace with own span id", next)
	}
	adopted.End()

	recs := tr.recent()
	if len(recs) != 2 {
		t.Fatalf("recent = %d spans", len(recs))
	}
	if recs[1].TraceID != "t-up" || recs[1].ParentID != "s-up" || recs[1].SpanID != next.SpanID {
		t.Fatalf("adopted record = %+v", recs[1])
	}
	if recs[0].StartUnixNano == 0 {
		t.Fatal("span record missing start timestamp")
	}
}

// TestSetRingSizeKeepsNewest: shrinking keeps the most recent spans and
// subsequent evictions count into spans_dropped_total{tracer=...}.
func TestSetRingSizeKeepsNewest(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, "sized")
	for i := 0; i < 6; i++ {
		s := tr.Start("")
		s.SetID(string(rune('a' + i)))
		s.End()
	}
	tr.SetRingSize(3)
	if tr.RingSize() != 3 {
		t.Fatalf("ring size = %d", tr.RingSize())
	}
	recs := tr.recent()
	if len(recs) != 3 || recs[0].ID != "d" || recs[2].ID != "f" {
		t.Fatalf("after shrink: %+v", recs)
	}
	before := scrape(t, reg)[`spans_dropped_total{tracer="sized"}`]
	s := tr.Start("")
	s.SetID("g")
	s.End()
	recs = tr.recent()
	if len(recs) != 3 || recs[0].ID != "e" || recs[2].ID != "g" {
		t.Fatalf("after push: %+v", recs)
	}
	after := scrape(t, reg)[`spans_dropped_total{tracer="sized"}`]
	if after != before+1 {
		t.Fatalf("spans_dropped_total %v -> %v, want +1", before, after)
	}
	// Growing preserves everything held.
	tr.SetRingSize(10)
	if got := len(tr.recent()); got != 3 {
		t.Fatalf("after grow: %d spans", got)
	}
	tr.SetRingSize(0) // ignored
	if tr.RingSize() != 10 {
		t.Fatal("SetRingSize(0) not ignored")
	}
}

// TestSpanHubStitch: three tracers emit spans of one trace; the hub returns
// them ordered by start time under the shared id and its handler serves both
// the grouped and the single-trace shape.
func TestSpanHubStitch(t *testing.T) {
	reg := NewRegistry()
	client := NewTracer(reg, "client_segment")
	router := NewTracer(reg, "router_request")
	server := NewTracer(reg, "server_request")

	// Client mints; router and server each re-parent off the upstream hop.
	cs := client.Start("seg0").WithTrace(TraceContext{})
	traceID := cs.TraceID()
	rs := router.Start("seg0").WithTrace(cs.TraceContext())
	ss := server.Start("seg0").WithTrace(rs.TraceContext())
	ss.End()
	rs.End()
	cs.End()
	// Unrelated traced span that must not appear in the stitched trace.
	other := client.Start("seg1").WithTrace(TraceContext{})
	other.End()

	hub := NewSpanHub(client, router, nil, server)
	spans := hub.Trace(traceID)
	if len(spans) != 3 {
		t.Fatalf("stitched %d spans, want 3", len(spans))
	}
	wantOrder := []string{"client_segment", "router_request", "server_request"}
	for i, r := range spans {
		if r.Name != wantOrder[i] {
			t.Fatalf("span %d = %s, want %s (start-time order)", i, r.Name, wantOrder[i])
		}
	}
	if spans[1].ParentID != spans[0].SpanID || spans[2].ParentID != spans[1].SpanID {
		t.Fatalf("parent chain broken: %+v", spans)
	}
	if len(hub.Traces()) != 2 {
		t.Fatalf("traces = %d, want 2", len(hub.Traces()))
	}

	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []SpanRecord
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Name != "client_segment" || got[0].TraceID != traceID {
		t.Fatalf("handler trace = %+v", got)
	}
	resp2, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var grouped struct {
		Traces map[string][]SpanRecord `json:"traces"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&grouped); err != nil {
		t.Fatal(err)
	}
	if len(grouped.Traces[traceID]) != 3 {
		t.Fatalf("grouped handler: %+v", grouped.Traces)
	}
}

// TestHistogramExemplars: ObserveExemplar attaches the latest trace id per
// bucket; plain Observe does not disturb it and /metrics output is unchanged.
func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "t", []float64{0.1, 1})
	h.ObserveExemplar(0.05, "t-aa")
	h.ObserveExemplar(0.5, "t-bb")
	h.ObserveExemplar(0.05, "t-cc") // newer exemplar replaces t-aa
	h.ObserveExemplar(0.07, "")     // empty trace id records no exemplar
	h.Observe(0.08)

	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("exemplars = %+v", ex)
	}
	byTrace := map[string]float64{}
	for _, e := range ex {
		byTrace[e.TraceID] = e.Value
	}
	if byTrace["t-cc"] != 0.05 || byTrace["t-bb"] != 0.5 {
		t.Fatalf("exemplar values = %v", byTrace)
	}
	if _, ok := byTrace["t-aa"]; ok {
		t.Fatal("replaced exemplar still visible")
	}
	// All five observations still count in the text exposition.
	if got := scrape(t, reg)["lat_seconds_count"]; got != 5 {
		t.Fatalf("count = %v, want 5", got)
	}
}
