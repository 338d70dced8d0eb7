package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestFlightSamplingGates: Session hashes the id, SessionN takes n mod
// SampleEvery; unsampled sessions get nil, on which every method no-ops.
func TestFlightSamplingGates(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{SampleEvery: 4})
	sampled := 0
	for n := 0; n < 16; n++ {
		if s := f.SessionN(n); s != nil {
			if n%4 != 0 {
				t.Fatalf("SessionN(%d) sampled with SampleEvery 4", n)
			}
			sampled++
			s.Close()
		}
	}
	if sampled != 4 {
		t.Fatalf("SessionN sampled %d of 16, want 4", sampled)
	}

	// Session's gate is the fnv32a hash mod SampleEvery — verify against a
	// direct computation on both a sampled and an unsampled id.
	hash := func(id string) uint32 {
		h := fnv.New32a()
		io.WriteString(h, id)
		return h.Sum32()
	}
	var in, out string
	for i := 0; in == "" || out == ""; i++ {
		id := fmt.Sprintf("viewer-%d", i)
		if hash(id)%4 == 0 {
			in = id
		} else {
			out = id
		}
	}
	if s := f.Session(in); s == nil {
		t.Fatalf("Session(%q) not sampled, hash says it should be", in)
	} else {
		if s.ID() != in {
			t.Fatalf("ID() = %q, want %q", s.ID(), in)
		}
		s.Close()
	}
	if s := f.Session(out); s != nil {
		t.Fatalf("Session(%q) sampled, hash says it should not be", out)
	}

	// Nil session: every method is a no-op, not a panic.
	var nilS *FlightSession
	nilS.Record(FlightEvent{Kind: FlightAbandon})
	nilS.RecordSegment(1, 0, 0.5, 0.5, 1e6, true)
	nilS.Close()
	if nilS.ID() != "" {
		t.Fatal("nil ID() not empty")
	}
	if len(f.Dumps()) != 0 {
		t.Fatal("nil session produced a dump")
	}
}

// TestFlightSessionNUnsampledAllocs: the fleet offers every joining session
// to SessionN, so the 1-in-N gate must not allocate for the sessions it
// turns away, while flight_sessions_seen_total still counts each of them.
func TestFlightSessionNUnsampledAllocs(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(FlightConfig{SampleEvery: 64, Registry: reg})
	for n := 0; n < 128; n++ {
		f.SessionN(n)
	}
	vals := scrape(t, reg)
	if seen := vals["flight_sessions_seen_total"]; seen != 128 {
		t.Fatalf("flight_sessions_seen_total = %v, want 128", seen)
	}
	if sampled := vals["flight_sessions_sampled_total"]; sampled != 2 {
		t.Fatalf("flight_sessions_sampled_total = %v, want 2", sampled)
	}
	if n := testing.AllocsPerRun(100, func() { f.SessionN(1001) }); n != 0 {
		t.Fatalf("unsampled SessionN made %v allocs, want 0", n)
	}
}

// TestFlightAbandonTrigger: an abandon event dumps the ring immediately, and
// a re-trigger with no new events is deduplicated.
func TestFlightAbandonTrigger(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(FlightConfig{SampleEvery: 1, Registry: reg})
	s := f.Session("sess")
	s.Record(FlightEvent{TimeSec: 0, Kind: FlightJoin, Seg: -1})
	s.Record(FlightEvent{TimeSec: 1, Kind: FlightDownload, Seg: 0, DownloadSec: 0.5})
	s.Record(FlightEvent{TimeSec: 2, Kind: FlightAbandon, Seg: 1, StallSec: 0.7})

	dumps := f.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Session != "sess" || d.Reason != "abandon" {
		t.Fatalf("dump = %s/%s", d.Session, d.Reason)
	}
	if len(d.Events) != 3 || d.Events[0].Kind != FlightJoin || d.Events[2].Kind != FlightAbandon {
		t.Fatalf("dump events = %+v", d.Events)
	}
	if d.Events[2].StallSec != 0.7 || d.Events[2].Seg != 1 {
		t.Fatalf("abandon payload = %+v", d.Events[2])
	}

	// No new events since the dump: an external trigger must not duplicate.
	if n := f.TriggerAll("manual"); n != 1 {
		t.Fatalf("TriggerAll reached %d sessions, want 1", n)
	}
	if len(f.Dumps()) != 1 {
		t.Fatalf("dedupe failed: %d dumps", len(f.Dumps()))
	}
	// One new event makes the next trigger dump again.
	s.Record(FlightEvent{TimeSec: 3, Kind: FlightLeave, Seg: -1})
	f.TriggerAll("manual")
	if len(f.Dumps()) != 2 {
		t.Fatalf("post-event trigger: %d dumps, want 2", len(f.Dumps()))
	}
	vals := scrape(t, reg)
	if vals[`flight_dumps_total{reason="abandon"}`] != 1 || vals[`flight_dumps_total{reason="manual"}`] != 1 {
		t.Fatalf("flight_dumps_total wrong: %v", vals)
	}
}

// TestFlightStallBurst: StallBurst stalls inside the window trigger, spread
// out stalls do not.
func TestFlightStallBurst(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{SampleEvery: 1, StallBurst: 3, StallBurstWindowSec: 10})
	s := f.Session("bursty")
	// Three stalls across 40 s of session time: outside the window.
	for i, ts := range []float64{0, 20, 40} {
		s.Record(FlightEvent{TimeSec: ts, Kind: FlightStall, Seg: int32(i), StallSec: 0.5})
	}
	if n := len(f.Dumps()); n != 0 {
		t.Fatalf("spread stalls dumped %d times", n)
	}
	// Two more stalls close to the last: stalls at 40, 41, 42 fit in 10 s.
	s.Record(FlightEvent{TimeSec: 41, Kind: FlightStall, Seg: 4, StallSec: 0.5})
	s.Record(FlightEvent{TimeSec: 42, Kind: FlightStall, Seg: 5, StallSec: 0.5})
	dumps := f.Dumps()
	if len(dumps) != 1 || dumps[0].Reason != "stall_burst" {
		t.Fatalf("dumps = %+v, want one stall_burst", dumps)
	}

	// StallBurst < 0 disables the trigger entirely.
	f2 := NewFlightRecorder(FlightConfig{SampleEvery: 1, StallBurst: -1})
	s2 := f2.Session("quiet")
	for i := 0; i < 10; i++ {
		s2.Record(FlightEvent{TimeSec: float64(i), Kind: FlightStall})
	}
	if len(f2.Dumps()) != 0 {
		t.Fatal("disabled stall trigger still dumped")
	}
}

// TestFlightRingWraps: the per-session ring keeps only the newest RingSize
// events, oldest first in the dump.
func TestFlightRingWraps(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{SampleEvery: 1, RingSize: 4})
	s := f.Session("wrap")
	for i := 0; i < 10; i++ {
		s.Record(FlightEvent{TimeSec: float64(i), Kind: FlightDownload, Seg: int32(i)})
	}
	s.Record(FlightEvent{TimeSec: 10, Kind: FlightAbandon, Seg: 10})
	d := f.Dumps()[0]
	if len(d.Events) != 4 {
		t.Fatalf("ring dump = %d events, want 4", len(d.Events))
	}
	for i, ev := range d.Events {
		if want := int32(7 + i); ev.Seg != want {
			t.Fatalf("event %d seg = %d, want %d (oldest-first)", i, ev.Seg, want)
		}
	}
}

// TestFlightTriggerAll: the SLO-burn hook dumps every active session once and
// skips closed ones.
func TestFlightTriggerAll(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{SampleEvery: 1})
	a, b, c := f.Session("a"), f.Session("b"), f.Session("c")
	for _, s := range []*FlightSession{a, b, c} {
		s.Record(FlightEvent{Kind: FlightJoin, Seg: -1})
	}
	c.Close()
	if n := f.TriggerAll("slo:availability"); n != 2 {
		t.Fatalf("TriggerAll dumped %d sessions, want 2", n)
	}
	dumps := f.Dumps()
	if len(dumps) != 2 {
		t.Fatalf("dumps = %d, want 2", len(dumps))
	}
	for _, d := range dumps {
		if d.Reason != "slo:availability" {
			t.Fatalf("reason = %q", d.Reason)
		}
		if d.Session == "c" {
			t.Fatal("closed session dumped")
		}
	}
}

// TestFlightMaxDumps: the dump list is bounded; evictions count into
// flight_dumps_dropped_total.
func TestFlightMaxDumps(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(FlightConfig{SampleEvery: 1, MaxDumps: 3, Registry: reg})
	for i := 0; i < 5; i++ {
		s := f.Session(fmt.Sprintf("s%d", i))
		s.Record(FlightEvent{TimeSec: float64(i), Kind: FlightAbandon, Seg: int32(i)})
		s.Close()
	}
	dumps := f.Dumps()
	if len(dumps) != 3 {
		t.Fatalf("dumps = %d, want 3", len(dumps))
	}
	// Oldest evicted: s0 and s1 gone, s2..s4 retained in order.
	for i, d := range dumps {
		if want := fmt.Sprintf("s%d", i+2); d.Session != want {
			t.Fatalf("dump %d session = %q, want %q", i, d.Session, want)
		}
	}
	if got := scrape(t, reg)["flight_dumps_dropped_total"]; got != 2 {
		t.Fatalf("flight_dumps_dropped_total = %v, want 2", got)
	}
}

// TestFlightJSONLAndHandler: dumps round-trip through the JSONL format and
// the /debug/flight handler serves the same bytes as NDJSON.
func TestFlightJSONLAndHandler(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{SampleEvery: 1})
	s := f.Session("jsonl")
	s.Record(FlightEvent{TimeSec: 1.5, Kind: FlightDownload, Seg: 3, DownloadSec: 0.75, StallSec: 0.25, EstimateBps: 4e6})
	s.Record(FlightEvent{TimeSec: 2, Kind: FlightAbandon, Seg: 4, StallSec: 0.8})

	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	lines := 0
	for sc.Scan() {
		lines++
		var d FlightDump
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if d.Session != "jsonl" || d.Reason != "abandon" || len(d.Events) != 2 {
			t.Fatalf("decoded dump = %+v", d)
		}
		if d.Events[0].Kind != FlightDownload || d.Events[0].DownloadSec != 0.75 || d.Events[0].EstimateBps != 4e6 {
			t.Fatalf("event 0 = %+v", d.Events[0])
		}
	}
	if lines != 1 {
		t.Fatalf("JSONL lines = %d, want 1", lines)
	}
	// Kinds serialize as names, not numbers, and a kind's unfilled fields
	// are left out.
	if !bytes.Contains(buf.Bytes(), []byte(`"kind":"download"`)) {
		t.Fatalf("kind not textual: %s", buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`{"t":2,"kind":"abandon","seg":4,"stall_sec":0.8}`)) {
		t.Fatalf("abandon event not compact: %s", buf.String())
	}

	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(body, buf.Bytes()) {
		t.Fatal("handler body differs from WriteJSONL output")
	}
}

// TestFlightRecordSegment: a stepped segment lands as a stall event when it
// rebuffered, then as its download or abandon, each carrying the step's
// download and stall seconds and the estimate.
func TestFlightRecordSegment(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{SampleEvery: 1})
	s := f.Session("steps")
	s.RecordSegment(1.5, 0, 0.5, 0, 4e6, false)
	s.RecordSegment(3.25, 1, 1.75, 0.25, 3e6, false)
	s.RecordSegment(5, 2, 0.7, 1.2, 3e6, true)
	dumps := f.Dumps()
	if len(dumps) != 1 || dumps[0].Reason != "abandon" {
		t.Fatalf("dumps = %+v, want one abandon", dumps)
	}
	want := []FlightEvent{
		{TimeSec: 1.5, Kind: FlightDownload, Seg: 0, DownloadSec: 0.5, EstimateBps: 4e6},
		{TimeSec: 3.25, Kind: FlightStall, Seg: 1, DownloadSec: 1.75, StallSec: 0.25, EstimateBps: 3e6},
		{TimeSec: 3.25, Kind: FlightDownload, Seg: 1, DownloadSec: 1.75, StallSec: 0.25, EstimateBps: 3e6},
		{TimeSec: 5, Kind: FlightStall, Seg: 2, DownloadSec: 0.7, StallSec: 1.2, EstimateBps: 3e6},
		{TimeSec: 5, Kind: FlightAbandon, Seg: 2, DownloadSec: 0.7, StallSec: 1.2, EstimateBps: 3e6},
	}
	if !reflect.DeepEqual(dumps[0].Events, want) {
		t.Fatalf("events\ngot  %+v\nwant %+v", dumps[0].Events, want)
	}
}

// TestFlightKindRoundTrip: every kind name survives Marshal/Unmarshal and
// unknown names are rejected.
func TestFlightKindRoundTrip(t *testing.T) {
	var names []string
	for k := FlightJoin; k <= FlightLeave; k++ {
		names = append(names, k.String())
	}
	if got := strings.Join(names, ","); got != "join,download,stall,abandon,leave" {
		t.Fatalf("kinds = %s", got)
	}
	for k := FlightJoin; k <= FlightLeave; k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back FlightKind
		if err := back.UnmarshalText(b); err != nil || back != k {
			t.Fatalf("kind %v round-trip = %v, %v", k, back, err)
		}
	}
	var k FlightKind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestFlightMetrics: the sampling gate's seen/sampled counters.
func TestFlightMetrics(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(FlightConfig{SampleEvery: 2, Registry: reg})
	for n := 0; n < 10; n++ {
		if s := f.SessionN(n); s != nil {
			s.Close()
		}
	}
	vals := scrape(t, reg)
	if vals["flight_sessions_seen_total"] != 10 {
		t.Fatalf("seen = %v, want 10", vals["flight_sessions_seen_total"])
	}
	if vals["flight_sessions_sampled_total"] != 5 {
		t.Fatalf("sampled = %v, want 5", vals["flight_sessions_sampled_total"])
	}
}
