package httpstream

import (
	"fmt"
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
