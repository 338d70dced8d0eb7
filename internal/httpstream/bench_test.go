package httpstream

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"ptile360/internal/netem"
	"ptile360/internal/power"
)

// idealTransport serves the harness behind an ideal netem listener and
// returns a transport that dials it; the listener and server close with
// the test.
func idealTransport(tb testing.TB, h *harness) http.RoundTripper {
	tb.Helper()
	prof, err := netem.Named("ideal")
	if err != nil {
		tb.Fatal(err)
	}
	l, err := netem.Listen(prof, 1, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	srv := &http.Server{Handler: h.server.Config.Handler}
	go srv.Serve(l)
	tb.Cleanup(func() {
		srv.Close()
		l.Close()
	})
	return &http.Transport{
		DialContext: func(context.Context, string, string) (net.Conn, error) { return l.Dial() },
	}
}

// BenchmarkClientSession streams one whole harness session — the MPC
// client, eval viewer 0, all 172 segments — through an ideal netem
// listener, with downloads charged on the emulated stable path and its
// waits compressed away: the full cost of a live HTTP session, reported
// per segment.
func BenchmarkClientSession(b *testing.B) {
	h := newHarness(b)
	rt := idealTransport(b, h)
	prof, err := netem.Named("stable")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	segments := 0
	for i := 0; i < b.N; i++ {
		pn, err := netem.NewSessionNet(netem.SessionConfig{Profile: prof, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		client, err := NewClient(ClientConfig{
			BaseURL:         "http://netem",
			Phone:           power.Pixel3,
			Net:             pn,
			TimeCompression: 1e12,
			UseMPC:          true,
			Transport:       rt,
		})
		if err != nil {
			b.Fatal(err)
		}
		report, err := client.Stream(2, h.eval[0])
		if err != nil {
			b.Fatal(err)
		}
		segments += len(report.Segments)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(segments), "ns/segment")
}

// BenchmarkServerSegment times the server's segment handler, called
// directly with the body discarded: query parsing, catalogue resolution,
// pricing and the body write. ptile requests cycle through every segment's
// first Ptile at q3, 27 fps; conventional requests through every segment at
// q3 around one center.
func BenchmarkServerSegment(b *testing.B) {
	h := newHarness(b)
	var ptileReqs, convReqs []*http.Request
	for k, pts := range h.cat.Ptiles {
		if len(pts) > 0 {
			ptileReqs = append(ptileReqs, httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/segment?video=2&seg=%d&q=3&f=27&ptile=0", k), nil))
		}
		convReqs = append(convReqs, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/segment?video=2&seg=%d&q=3&cx=180&cy=90", k), nil))
	}
	for _, bc := range []struct {
		name string
		reqs []*http.Request
	}{{"ptile", ptileReqs}, {"conventional", convReqs}} {
		b.Run(bc.name, func(b *testing.B) {
			dw := &discardWriter{h: http.Header{}}
			w := &countingWriter{ResponseWriter: dw}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(dw.h)
				w.code, w.bytes = 0, 0
				h.server.Config.Handler.ServeHTTP(w, bc.reqs[i%len(bc.reqs)])
				if w.code != http.StatusOK || w.bytes < 1 {
					b.Fatalf("status %d, %d bytes", w.code, w.bytes)
				}
			}
		})
	}
}
