package httpstream

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/power"
	"ptile360/internal/sim"
)

// sessionNet is a fresh emulated path on the named profile.
func sessionNet(t *testing.T, profile string, seed int64) *netem.SessionNet {
	t.Helper()
	prof, err := netem.Named(profile)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := netem.NewSessionNet(netem.SessionConfig{Profile: prof, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return pn
}

// simConfig is the configuration the client runs for useMPC against the
// harness server, with per-segment recording on.
func simConfig(t *testing.T, useMPC bool) sim.Config {
	t.Helper()
	scheme := sim.SchemePtile
	if useMPC {
		scheme = sim.SchemeOurs
	}
	cfg, err := sim.DefaultConfig(scheme, power.Pixel3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RecordSegments = true
	return cfg
}

// requireSameSession fails unless the client's session is the simulated
// one: its events DeepEqual the simulator's rows, so every float matches on
// Float64bits — the step's timing, energy, perceived and best quality, QoE
// loss, stall, buffer, throughput and center — and so do the bytes, degrade
// steps and flags.
func requireSameSession(t *testing.T, report *SessionReport, res *sim.Result) {
	t.Helper()
	if !reflect.DeepEqual(report.Segments, res.PerSegment) {
		if len(report.Segments) != len(res.PerSegment) {
			t.Fatalf("client %d events, simulator %d rows", len(report.Segments), len(res.PerSegment))
		}
		for i, ev := range report.Segments {
			if ev != res.PerSegment[i] {
				t.Fatalf("segment %d diverges:\nclient    %+v\nsimulator %+v", i, ev, res.PerSegment[i])
			}
		}
		t.Fatal("client events differ from the simulator's rows")
	}
}

// TestClientMatchesRunNetem is the one-session-core guarantee: the HTTP
// client over an emulated path is sim.RunNetem on the same path, to the
// bit, for the MPC and the Ptile baseline on every eval viewer, over the
// whole video.
func TestClientMatchesRunNetem(t *testing.T) {
	h := newHarness(t)
	rt := idealTransport(t, h)
	for _, useMPC := range []bool{true, false} {
		for _, profile := range []string{"stable", "bufferbloat", "crossflow"} {
			for v := 0; v < 3; v++ {
				t.Run(fmt.Sprintf("mpc=%v/%s/viewer%d", useMPC, profile, v), func(t *testing.T) {
					client, err := NewClient(ClientConfig{
						BaseURL:         "http://netem",
						Phone:           power.Pixel3,
						Net:             sessionNet(t, profile, 7),
						TimeCompression: 1e12,
						UseMPC:          useMPC,
						Transport:       rt,
					})
					if err != nil {
						t.Fatal(err)
					}
					report, err := client.Stream(2, h.eval[v])
					if err != nil {
						t.Fatal(err)
					}
					res, err := sim.RunNetem(h.cat, h.eval[v], sessionNet(t, profile, 7), simConfig(t, useMPC))
					if err != nil {
						t.Fatal(err)
					}
					if len(report.Segments) != len(h.cat.Content) {
						t.Fatalf("streamed %d of %d segments", len(report.Segments), len(h.cat.Content))
					}
					requireSameSession(t, report, res)
				})
			}
		}
	}
}

// TestClientShapedMatchesRun is the same guarantee against a bandwidth
// trace: the client shaped to a trace is sim.Run on that trace.
func TestClientShapedMatchesRun(t *testing.T) {
	h := newHarness(t)
	tr1, tr2, err := lte.StandardTraces(400, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, useMPC := range []bool{true, false} {
		for ti, trace := range []*lte.Trace{tr1, tr2} {
			for v := 0; v < 3; v++ {
				t.Run(fmt.Sprintf("mpc=%v/trace%d/viewer%d", useMPC, ti+1, v), func(t *testing.T) {
					client, err := NewClient(ClientConfig{
						BaseURL:         h.server.URL,
						Phone:           power.Pixel3,
						Shape:           trace,
						TimeCompression: 1e12,
						UseMPC:          useMPC,
					})
					if err != nil {
						t.Fatal(err)
					}
					report, err := client.Stream(2, h.eval[v])
					if err != nil {
						t.Fatal(err)
					}
					res, err := sim.Run(h.cat, h.eval[v], trace, simConfig(t, useMPC))
					if err != nil {
						t.Fatal(err)
					}
					requireSameSession(t, report, res)
				})
			}
		}
	}
}

// TestClientMatchesSimChoosingAmongPtiles holds both guarantees above on
// video 8, where a session chooses among the Ptiles a segment offers and
// falls back to conventional tiles where it offers none: the MPC and the
// Ptile baseline on two eval viewers match sim.RunNetem over the stable
// path and sim.Run shaped to LTE trace 1. A session streamed twice through
// a Router, the second time replayed from its edge cache, matches too.
func TestClientMatchesSimChoosingAmongPtiles(t *testing.T) {
	h := newPtileHarness(t)
	rt := idealTransport(t, h)
	tr1, _, err := lte.StandardTraces(400, 99)
	if err != nil {
		t.Fatal(err)
	}
	// stream runs one session and requires the simulator's rows, served
	// from Ptiles and conventional tiles both, and returns its report.
	stream := func(t *testing.T, cfg ClientConfig, v int, res *sim.Result) *SessionReport {
		t.Helper()
		cfg.Phone, cfg.TimeCompression = power.Pixel3, 1e12
		client, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		report, err := client.Stream(8, h.eval[v])
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Segments) != len(h.cat.Content) {
			t.Fatalf("streamed %d of %d segments", len(report.Segments), len(h.cat.Content))
		}
		requireSameSession(t, report, res)
		fallbacks := 0
		for _, ev := range report.Segments {
			if !ev.FromPtile {
				fallbacks++
			}
		}
		t.Logf("%d of %d segments took the conventional fallback", fallbacks, len(report.Segments))
		if fallbacks == 0 || fallbacks == len(report.Segments) {
			t.Fatalf("%d of %d segments fell back: want Ptiles and fallbacks both", fallbacks, len(report.Segments))
		}
		return report
	}
	for _, useMPC := range []bool{true, false} {
		for v := 0; v < 2; v++ {
			t.Run(fmt.Sprintf("mpc=%v/stable/viewer%d", useMPC, v), func(t *testing.T) {
				res, err := sim.RunNetem(h.cat, h.eval[v], sessionNet(t, "stable", 7), simConfig(t, useMPC))
				if err != nil {
					t.Fatal(err)
				}
				stream(t, ClientConfig{BaseURL: "http://netem", Net: sessionNet(t, "stable", 7),
					UseMPC: useMPC, Transport: rt}, v, res)
			})
			t.Run(fmt.Sprintf("mpc=%v/trace1/viewer%d", useMPC, v), func(t *testing.T) {
				res, err := sim.Run(h.cat, h.eval[v], tr1, simConfig(t, useMPC))
				if err != nil {
					t.Fatal(err)
				}
				stream(t, ClientConfig{BaseURL: h.server.URL, Shape: tr1, UseMPC: useMPC}, v, res)
			})
		}
	}
	t.Run("router-replay", func(t *testing.T) {
		router, err := NewRouter(RouterConfig{}, Shard{Name: "a", Handler: h.server.Config.Handler})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(h.cat, h.eval[0], tr1, simConfig(t, true))
		if err != nil {
			t.Fatal(err)
		}
		// pass streams the session through the router and reads its ledger
		// once every handler has returned: closing the server waits for
		// them, so the last request's counters are in. Close is idempotent.
		pass := func() (*SessionReport, TierLedger) {
			ts := httptest.NewServer(router)
			defer ts.Close()
			report := stream(t, ClientConfig{BaseURL: ts.URL, Shape: tr1, UseMPC: true}, 0, res)
			ts.Close()
			return report, router.Ledger()
		}
		report, first := pass()
		_, led := pass()
		// Bodies over the cache's 1 MiB cap stream through uncached; the
		// manifest and every other segment replay from stored chunks.
		uncached := int64(0)
		for _, ev := range report.Segments {
			if ev.Bytes > 1<<20 {
				uncached++
			}
		}
		t.Logf("%d bodies over the cap", uncached)
		requests := led.Requests - first.Requests
		if led.ShardRequests-first.ShardRequests != uncached || led.CacheHits-first.CacheHits != requests-uncached {
			t.Fatalf("second pass: ledger %+v after %+v, want all but the %d uncached bodies served by the cache", led, first, uncached)
		}
	})
}
