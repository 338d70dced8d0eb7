package httpstream

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ptile360/internal/obs"
	"ptile360/internal/power"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// TestClientTelemetryPerSegment is the acceptance check for session
// telemetry: every downloaded segment yields exactly one event carrying
// size, frame rate, stall, QoE loss, and energy, and the registry series
// agree with the events and the session report.
func TestClientTelemetryPerSegment(t *testing.T) {
	h := newHarness(t)
	const nSegments = 6
	reg := obs.NewRegistry()
	var records []SegmentEvent
	client, err := NewClient(ClientConfig{
		BaseURL:     h.server.URL,
		Phone:       power.Pixel3,
		MaxSegments: nSegments,
		UseMPC:      true,
		ClientID:    "telemetry-test",
		Metrics:     reg,
		Telemetry:   func(ev SegmentEvent) { records = append(records, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := client.Stream(2, h.eval[0])
	if err != nil {
		t.Fatal(err)
	}

	if len(records) != nSegments {
		t.Fatalf("got %d telemetry records, want one per segment (%d)", len(records), nSegments)
	}
	var sumLoss, sumEnergy float64
	var sumBytes int64
	for i, tr := range records {
		if tr.Session != "telemetry-test" || tr.Video != 2 || tr.Segment != i {
			t.Fatalf("record %d misaddressed: %+v", i, tr)
		}
		if tr.Abandoned {
			t.Fatalf("segment %d abandoned against a healthy server", i)
		}
		// The headline fields must all be populated on a served segment.
		if tr.SizeBits <= 0 || tr.FrameRate <= 0 || tr.Bytes <= 0 || tr.EnergyMJ <= 0 {
			t.Fatalf("record %d missing headline fields: %+v", i, tr)
		}
		if tr.StallSec < 0 {
			t.Fatalf("record %d negative stall: %+v", i, tr)
		}
		if tr.QoELoss < 0 || tr.QoELoss > 1 || tr.BestPerceivedQuality < tr.PerceivedQuality {
			t.Fatalf("record %d QoE accounting broken: %+v", i, tr)
		}
		if tr.TxEnergyMJ <= 0 || tr.DecodeEnergyMJ <= 0 || tr.TxEnergyMJ+tr.DecodeEnergyMJ > tr.EnergyMJ {
			t.Fatalf("record %d energy split broken: %+v", i, tr)
		}
		sumLoss += tr.QoELoss
		sumEnergy += tr.EnergyMJ
		sumBytes += tr.Bytes
	}
	if math.Abs(sumLoss-report.TotalQoELoss) > 1e-9 {
		t.Fatalf("telemetry QoE loss %g != report %g", sumLoss, report.TotalQoELoss)
	}
	if math.Abs(sumEnergy-report.TotalEnergyMJ) > 1e-6 {
		t.Fatalf("telemetry energy %g != report %g", sumEnergy, report.TotalEnergyMJ)
	}
	if sumBytes != report.TotalBytes {
		t.Fatalf("telemetry bytes %d != report %d", sumBytes, report.TotalBytes)
	}

	// The registry saw the same session.
	samples := scrapeRegistry(t, reg)
	if got := samples[`client_segments_total{result="served"}`]; got != nSegments {
		t.Fatalf("client_segments_total served = %v, want %d", got, nSegments)
	}
	if got := samples["client_qoe_loss_count"]; got != nSegments {
		t.Fatalf("client_qoe_loss_count = %v, want %d", got, nSegments)
	}
	if got := samples["client_bytes_total"]; int64(got) != sumBytes {
		t.Fatalf("client_bytes_total = %v, want %d", got, sumBytes)
	}
	if got := samples["client_segment_span_seconds_count"]; got != nSegments {
		t.Fatalf("client_segment_span_seconds_count = %v, want %d", got, nSegments)
	}
}

// TestServerInstrumentation checks the request-path metrics and the
// request-ID contract on an instrumented server.
func TestServerInstrumentation(t *testing.T) {
	h := newHarness(t)
	reg := obs.NewRegistry()
	srv, err := NewServer(map[int]*sim.Catalog{2: h.cat}, video.DefaultEncoderConfig(), []float64{30, 27, 24, 21})
	if err != nil {
		t.Fatal(err)
	}
	logger, err := obs.LogConfig{Level: "error"}.NewLogger(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv.Instrument(reg, logger)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/manifest?video=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if resp.Header.Get(obs.RequestIDHeader) == "" {
		t.Fatal("instrumented server response missing X-Request-Id")
	}
	// A client-chosen request ID must echo back.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/manifest?video=99", nil)
	req.Header.Set(obs.RequestIDHeader, "joinable-id")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "joinable-id" {
		t.Fatalf("request ID not honored: %q", got)
	}

	samples := scrapeRegistry(t, reg)
	if got := samples[`httpstream_requests_total{code="200",path="/manifest"}`]; got != 1 {
		t.Fatalf("requests_total 200 = %v, want 1; samples: %v", got, samples)
	}
	if got := samples[`httpstream_requests_total{code="404",path="/manifest"}`]; got != 1 {
		t.Fatalf("requests_total 404 = %v, want 1; samples: %v", got, samples)
	}
	if got := samples[`httpstream_request_seconds_count{path="/manifest"}`]; got != 2 {
		t.Fatalf("request_seconds_count = %v, want 2", got)
	}
	if got := samples[`httpstream_response_bytes_total{path="/manifest"}`]; got <= 0 {
		t.Fatalf("response_bytes_total = %v, want > 0", got)
	}
	if got := samples["server_request_span_seconds_count"]; got != 2 {
		t.Fatalf("server span count = %v, want 2", got)
	}
}

func scrapeRegistry(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParsePrometheus(sb.String())
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.Series()] = s.Value
	}
	return out
}
