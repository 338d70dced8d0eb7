package httpstream

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ptile360/internal/power"
)

// offByOne serves the first bad attempts at segment seg with a body delta
// bytes longer or shorter than priced, under a Content-Length that matches
// the body; every other request passes through. attempts counts the
// requests for seg.
func offByOne(inner http.Handler, seg string, delta int, bad int64, attempts *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/segment" || r.URL.Query().Get("seg") != seg {
			inner.ServeHTTP(w, r)
			return
		}
		if attempts.Add(1) > bad {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if delta > 0 {
			body = append(body, 0)
		} else {
			body = body[:len(body)-1]
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestClientRejectsUnpricedBody: a body one byte off its priced size, even
// under a matching Content-Length, is a failed attempt. Each one counts as
// a retry; when the controller's rung keeps failing the client degrades,
// and when every rung fails it abandons the segment, exactly as for a
// truncated body.
func TestClientRejectsUnpricedBody(t *testing.T) {
	h := newHarness(t)
	const seg = 1
	retry := fastRetry()
	for _, tc := range []struct {
		name  string
		delta int
		bad   int64 // attempts served off by one; the rest pass through
	}{
		{"plus one, abandon", 1, 1 << 30},
		{"minus one, abandon", -1, 1 << 30},
		{"plus one, degrade", 1, int64(retry.MaxAttempts)},
		{"minus one, degrade", -1, int64(retry.MaxAttempts)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var attempts atomic.Int64
			srv := httptest.NewServer(offByOne(h.server.Config.Handler, strconv.Itoa(seg), tc.delta, tc.bad, &attempts))
			defer srv.Close()
			client, err := NewClient(ClientConfig{
				BaseURL:     srv.URL,
				Phone:       power.Pixel3,
				MaxSegments: 3,
				UseMPC:      true,
				Retry:       retry,
			})
			if err != nil {
				t.Fatal(err)
			}
			report, err := client.Stream(2, h.eval[0])
			if err != nil {
				t.Fatal(err)
			}
			rec := report.Segments[seg]
			failed := min(attempts.Load(), tc.bad)
			if int64(rec.Retries) != failed || failed == 0 {
				t.Fatalf("segment %d: %d retries for %d off-by-one bodies", seg, rec.Retries, failed)
			}
			if tc.bad > int64(retry.MaxAttempts) {
				if !rec.Abandoned || rec.Bytes != 0 || rec.StallSec <= 0 {
					t.Fatalf("every rung off by one: %+v; want abandoned with a stall", rec)
				}
			} else if rec.Abandoned || rec.DegradeSteps != 1 || rec.Bytes <= 0 {
				t.Fatalf("first rung off by one: %+v; want served one rung down", rec)
			}
			for _, other := range report.Segments {
				if other.Segment != seg && (other.Retries != 0 || other.Abandoned) {
					t.Fatalf("segment %d disturbed: %+v", other.Segment, other)
				}
			}
		})
	}
}

// rewriteManifest serves the harness with every manifest passed through
// edit; segments counts the segment requests that reach it.
func rewriteManifest(t *testing.T, h *harness, edit func(*Manifest), segments *atomic.Int64) *httptest.Server {
	inner := h.server.Config.Handler
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/manifest" {
			segments.Add(1)
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var m Manifest
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Error(err)
		}
		edit(&m)
		json.NewEncoder(w).Encode(m)
	}))
}

// TestClientManifestGuard: a manifest advertising a grid, source rate,
// quality count or frame-rate ladder the client does not price with fails
// the session before its first segment request, naming the field.
func TestClientManifestGuard(t *testing.T) {
	h := newHarness(t)
	for _, tc := range []struct {
		name   string
		useMPC bool
		edit   func(*Manifest)
		field  string
	}{
		{"grid rows", true, func(m *Manifest) { m.GridRows = 6 }, "grid_rows"},
		{"grid cols", false, func(m *Manifest) { m.GridCols = 12 }, "grid_cols"},
		{"source fps", true, func(m *Manifest) { m.SourceFPS = 60 }, "source_fps"},
		{"qualities", true, func(m *Manifest) { m.Qualities = 4 }, "qualities"},
		{"ladder without the source rate", false, func(m *Manifest) { m.FrameRates = []float64{27, 24} }, "frame_rates"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var segments atomic.Int64
			srv := rewriteManifest(t, h, tc.edit, &segments)
			defer srv.Close()
			client, err := NewClient(ClientConfig{BaseURL: srv.URL, Phone: power.Pixel3, MaxSegments: 2, UseMPC: tc.useMPC})
			if err != nil {
				t.Fatal(err)
			}
			_, err = client.Stream(2, h.eval[0])
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("stream error %v, want one naming %s", err, tc.field)
			}
			if n := segments.Load(); n != 0 {
				t.Fatalf("%d segment requests before the guard tripped", n)
			}
		})
	}
	// The unedited manifest streams.
	var segments atomic.Int64
	srv := rewriteManifest(t, h, func(*Manifest) {}, &segments)
	defer srv.Close()
	client, err := NewClient(ClientConfig{BaseURL: srv.URL, Phone: power.Pixel3, MaxSegments: 2, UseMPC: true})
	if err != nil {
		t.Fatal(err)
	}
	if report, err := client.Stream(2, h.eval[0]); err != nil || len(report.Segments) != 2 {
		t.Fatalf("unedited manifest: %v", err)
	}
}
