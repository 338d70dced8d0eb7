package httpstream

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"ptile360/internal/obs"
)

// TestFlightMiddleware: the serving path feeds per-client flight sessions —
// joins are stamped once, 2xx records downloads, 5xx records stalls, an
// error burst for one client trips the stall-burst dump on its own, and a
// TriggerAll (the SLO-burn hook) dumps every live client.
func TestFlightMiddleware(t *testing.T) {
	rec := obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 1, StallBurst: 3})
	var status int
	mw := FlightMiddleware(rec, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
	}))

	do := func(client, path string, code int) {
		r := httptest.NewRequest("GET", path, nil)
		r.Header.Set("X-Client-Id", client)
		status = code
		w := httptest.NewRecorder()
		mw.ServeHTTP(w, r)
		if w.Code != code {
			t.Fatalf("middleware rewrote status: got %d, want %d", w.Code, code)
		}
	}

	do("alice", "/segment?video=2&seg=4", 200)
	do("alice", "/segment?video=2&seg=5", 200)
	// Three 5xx inside the burst window dump alice's black box.
	for i := 0; i < 3; i++ {
		do("alice", "/segment?video=2&seg=6", 503)
	}
	dumps := rec.Dumps()
	if len(dumps) != 1 || dumps[0].Session != "alice" || dumps[0].Reason != "stall_burst" {
		t.Fatalf("dumps = %+v, want one stall_burst for alice", dumps)
	}
	evs := dumps[0].Events
	if evs[0].Kind != obs.FlightJoin {
		t.Fatalf("first event = %+v, want join", evs[0])
	}
	var downloads, stalls int
	for _, ev := range evs[1:] {
		switch ev.Kind {
		case obs.FlightDownload:
			downloads++
			if ev.Status != 200 {
				t.Fatalf("download event carries code %v", ev.Status)
			}
		case obs.FlightStall:
			stalls++
			if ev.Status != 503 {
				t.Fatalf("stall event carries code %v", ev.Status)
			}
		default:
			t.Fatalf("unexpected event %+v", ev)
		}
	}
	if downloads != 2 || stalls != 3 {
		t.Fatalf("events = %d downloads, %d stalls, want 2/3", downloads, stalls)
	}
	if evs[1].Seg != 4 || evs[2].Seg != 5 {
		t.Fatalf("segment tags = %d, %d, want 4, 5", evs[1].Seg, evs[2].Seg)
	}

	// A second client stays live; the burn hook dumps both.
	do("bob", "/manifest?video=2", 200)
	if n := rec.TriggerAll("slo:availability"); n != 2 {
		t.Fatalf("TriggerAll dumped %d sessions, want 2 (alice, bob)", n)
	}

	// No X-Client-Id: the remote host becomes the session id.
	r := httptest.NewRequest("GET", "/manifest?video=2", nil)
	r.RemoteAddr = "10.1.2.3:5555"
	status = 200
	mw.ServeHTTP(httptest.NewRecorder(), r)
	rec.TriggerAll("manual")
	if got := dumpedSessions(rec, "manual"); len(got) != 1 || !got["10.1.2.3"] {
		t.Fatalf("manual dumps = %v, want the remote-host session alone", got)
	}

	// A nil recorder is a no-op passthrough.
	passthrough := FlightMiddleware(nil, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(204)
	}))
	w := httptest.NewRecorder()
	passthrough.ServeHTTP(w, httptest.NewRequest("GET", "/", nil))
	if w.Code != 204 {
		t.Fatalf("nil-recorder passthrough status = %d", w.Code)
	}
}

// TestFlightMiddlewareEviction: the client table is bounded — the
// longest-idle client is closed to admit a new one.
func TestFlightMiddlewareEviction(t *testing.T) {
	rec := obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 1})
	mw := FlightMiddleware(rec, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(200)
	})).(*flightHandler)
	mw.maxClients = 2

	for _, id := range []string{"a", "b"} {
		r := httptest.NewRequest("GET", "/manifest?video=2", nil)
		r.Header.Set("X-Client-Id", id)
		mw.ServeHTTP(httptest.NewRecorder(), r)
	}
	// Touch "a" so "b" is the idle one, then admit "c".
	for _, id := range []string{"a", "c"} {
		r := httptest.NewRequest("GET", "/manifest?video=2", nil)
		r.Header.Set("X-Client-Id", id)
		mw.ServeHTTP(httptest.NewRecorder(), r)
	}
	if len(mw.sess) != 2 {
		t.Fatalf("table size = %d, want 2", len(mw.sess))
	}
	if _, ok := mw.sess["b"]; ok {
		t.Fatal("idle client b not evicted")
	}
	// Evicted sessions are closed: triggering no longer dumps them.
	rec.TriggerAll("manual")
	if got := dumpedSessions(rec, "manual"); len(got) != 2 || !got["a"] || !got["c"] {
		t.Fatalf("manual dumps = %v, want the live sessions a and c", got)
	}
}

// dumpedSessions lists the sessions the recorder dumped for reason.
func dumpedSessions(rec *obs.FlightRecorder, reason string) map[string]bool {
	out := map[string]bool{}
	for _, d := range rec.Dumps() {
		if d.Reason == reason {
			out[d.Session] = true
		}
	}
	return out
}
