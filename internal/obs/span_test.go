package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestTracerStagesAndHistograms(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, "lifecycle")
	for i := 0; i < 3; i++ {
		sp := tr.Start(fmt.Sprintf("id-%d", i))
		sp.Stage("admit")
		sp.Stage("handle")
		sp.End()
		sp.End() // idempotent
	}
	samples := scrape(t, reg)
	if got := samples[`lifecycle_stage_seconds_count{stage="admit"}`]; got != 3 {
		t.Fatalf("admit stage count = %v, want 3", got)
	}
	if got := samples[`lifecycle_stage_seconds_count{stage="handle"}`]; got != 3 {
		t.Fatalf("handle stage count = %v, want 3", got)
	}
	if got := samples["lifecycle_span_seconds_count"]; got != 3 {
		t.Fatalf("span count = %v, want 3 (End must be idempotent)", got)
	}

	recent := tr.recent()
	if len(recent) != 3 {
		t.Fatalf("recent() = %d spans, want 3", len(recent))
	}
	first := recent[0]
	if first.ID != "id-0" || len(first.Stages) != 2 || first.Stages[0].Stage != "admit" {
		t.Fatalf("first record = %+v", first)
	}
	if first.TotalSeconds < first.Stages[0].Seconds {
		t.Fatalf("total %v < stage %v", first.TotalSeconds, first.Stages[0].Seconds)
	}
}

func TestTracerRingBounded(t *testing.T) {
	const ringCap = defaultRingCap
	tr := NewTracer(NewRegistry(), "ring")
	for i := 0; i < ringCap+10; i++ {
		sp := tr.Start(fmt.Sprintf("id-%d", i))
		sp.End()
	}
	recent := tr.recent()
	if len(recent) != ringCap {
		t.Fatalf("ring holds %d, want %d", len(recent), ringCap)
	}
	// Oldest first: the first 10 spans were evicted.
	if recent[0].ID != "id-10" {
		t.Fatalf("oldest = %q, want id-10", recent[0].ID)
	}
	if recent[ringCap-1].ID != fmt.Sprintf("id-%d", ringCap+9) {
		t.Fatalf("newest = %q", recent[ringCap-1].ID)
	}
}

func TestTracerHandler(t *testing.T) {
	tr := NewTracer(NewRegistry(), "h")
	sp := tr.Start("")
	sp.SetID("late-id")
	sp.Stage("only")
	sp.End()

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/spans/h", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var out []SpanRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if len(out) != 1 || out[0].ID != "late-id" || out[0].Name != "h" {
		t.Fatalf("payload = %+v", out)
	}
}
