package httpstream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"testing"

	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/power"
	"ptile360/internal/sim"
)

// streamOverTransport runs one full client session against the shared
// harness server, optionally through a custom transport.
func streamOverTransport(t *testing.T, rt http.RoundTripper, baseURL string) *SessionReport {
	t.Helper()
	client, err := NewClient(ClientConfig{
		BaseURL:     baseURL,
		Phone:       power.Pixel3,
		MaxSegments: 30,
		UseMPC:      true,
		Transport:   rt,
		ClientID:    "netem-diff",
	})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t)
	report, err := client.Stream(2, h.eval[0])
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestNetemIdealConnMatchesDirectTransport is the shim's differential
// guarantee: the ideal profile (unlimited capacity, zero latency, zero loss)
// must be invisible — a full client session routed through a netem.Listener
// makes byte-for-byte the same decisions, downloads the same payloads, and
// reports bit-identical (Float64bits) values for every field that does not
// measure wall time. Wall-derived fields (throughput, energy, stall) carry
// scheduler noise on BOTH transports and are excluded.
func TestNetemIdealConnMatchesDirectTransport(t *testing.T) {
	h := newHarness(t)

	direct := streamOverTransport(t, nil, h.server.URL)

	prof, err := netem.Named("ideal")
	if err != nil {
		t.Fatal(err)
	}
	l, err := netem.Listen(prof, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := &http.Server{Handler: h.server.Config.Handler}
	go srv.Serve(l)
	defer srv.Close()
	rt := &http.Transport{
		DialContext: func(context.Context, string, string) (net.Conn, error) { return l.Dial() },
	}
	emulated := streamOverTransport(t, rt, "http://netem")

	if len(direct.Segments) != len(emulated.Segments) {
		t.Fatalf("segment counts diverge: direct %d, netem %d", len(direct.Segments), len(emulated.Segments))
	}
	for i := range direct.Segments {
		d, e := direct.Segments[i], emulated.Segments[i]
		if d.Segment != e.Segment || d.Quality != e.Quality || d.Bytes != e.Bytes ||
			d.FromPtile != e.FromPtile || d.Emergency != e.Emergency ||
			d.Retries != e.Retries || d.DegradeSteps != e.DegradeSteps || d.Abandoned != e.Abandoned {
			t.Fatalf("segment %d decisions diverge:\ndirect  %+v\nnetem   %+v", i, d, e)
		}
		for _, f := range [][2]float64{
			{d.FrameRate, e.FrameRate},
			{d.PerceivedQuality, e.PerceivedQuality},
			{d.BestPerceivedQuality, e.BestPerceivedQuality},
			{d.Center.X, e.Center.X},
			{d.Center.Y, e.Center.Y},
		} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("segment %d float diverges: %x vs %x (%g vs %g)",
					i, math.Float64bits(f[0]), math.Float64bits(f[1]), f[0], f[1])
			}
		}
	}
	if direct.TotalBytes != emulated.TotalBytes || direct.PtileSegments != emulated.PtileSegments ||
		direct.TotalRetries != emulated.TotalRetries || direct.AbandonedSegments != emulated.AbandonedSegments {
		t.Fatalf("session totals diverge:\ndirect  %+v\nnetem   %+v", direct, emulated)
	}

	// Raw payloads are byte-identical too: same segment fetched over both
	// transports yields the same body.
	directBody := fetchBody(t, http.DefaultClient, h.server.URL+"/manifest?video=2")
	netemBody := fetchBody(t, &http.Client{Transport: rt}, "http://netem/manifest?video=2")
	if !bytes.Equal(directBody, netemBody) {
		t.Fatalf("manifest bodies diverge: %d vs %d bytes", len(directBody), len(netemBody))
	}
}

func fetchBody(t *testing.T, c *http.Client, url string) []byte {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

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
