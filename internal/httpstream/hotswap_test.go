package httpstream

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptile360/internal/obs"
	"ptile360/internal/power"
	"ptile360/internal/ptile"
	"ptile360/internal/ptilelive"
	"ptile360/internal/resilience"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// altCatalog returns a copy-on-write variant of base with segment 0's
// Ptiles dropped — a visibly different catalogue generation.
func altCatalog(base *sim.Catalog) *sim.Catalog {
	next := &sim.Catalog{
		Video:      base.Video,
		SegmentSec: base.SegmentSec,
		Content:    base.Content,
		Ptiles:     make([][]ptile.Ptile, len(base.Ptiles)),
		Ftiles:     base.Ftiles,
		Coverage:   base.Coverage,
	}
	copy(next.Ptiles, base.Ptiles)
	next.Ptiles[0] = nil
	return next
}

func fetchManifest(t *testing.T, url string) Manifest {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest %s: status %s", url, resp.Status)
	}
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCatalogSwapVersioning pins the hot-swap contract: generations are
// monotonically versioned, the manifest advertises its generation, pinned
// requests resolve superseded generations until they age out of the bounded
// history (then 410), and malformed pins die with 400.
func TestCatalogSwapVersioning(t *testing.T) {
	h := newHarness(t)
	srv, err := NewServer(map[int]*sim.Catalog{2: h.cat}, video.DefaultEncoderConfig(), []float64{30, 27, 24, 21})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if v := srv.CatalogVersion(); v != 1 {
		t.Fatalf("fresh server version %d, want 1", v)
	}
	m1 := fetchManifest(t, ts.URL+"/manifest?video=2")
	if m1.CatalogVersion != 1 {
		t.Fatalf("manifest version %d, want 1", m1.CatalogVersion)
	}
	basePtiles0 := len(m1.Segments[0].Ptiles)
	if basePtiles0 == 0 {
		t.Fatal("fixture segment 0 has no Ptiles; pick another probe segment")
	}

	if v, err := srv.SwapCatalog(altCatalog(h.cat)); err != nil || v != 2 {
		t.Fatalf("first swap version %d (%v), want 2", v, err)
	}
	m2 := fetchManifest(t, ts.URL+"/manifest?video=2")
	if m2.CatalogVersion != 2 || len(m2.Segments[0].Ptiles) != 0 {
		t.Fatalf("post-swap manifest: version %d, %d Ptiles at seg 0; want 2, 0",
			m2.CatalogVersion, len(m2.Segments[0].Ptiles))
	}
	// A session pinned to generation 1 still sees the old geometry.
	mPinned := fetchManifest(t, ts.URL+"/manifest?video=2&cv=1")
	if mPinned.CatalogVersion != 1 || len(mPinned.Segments[0].Ptiles) != basePtiles0 {
		t.Fatalf("pinned manifest: version %d, %d Ptiles; want 1, %d",
			mPinned.CatalogVersion, len(mPinned.Segments[0].Ptiles), basePtiles0)
	}
	// Pinned segment downloads work on the superseded generation too.
	resp, err := http.Get(ts.URL + "/segment?video=2&seg=0&q=3&f=30&cv=1&ptile=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned segment on v1: status %s", resp.Status)
	}
	// The same request against the current generation must 400: segment 0
	// has no Ptile 0 anymore.
	resp, err = http.Get(ts.URL + "/segment?video=2&seg=0&q=3&f=30&ptile=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("segment 0 ptile 0 on current: status %s, want 400", resp.Status)
	}

	for _, bad := range []string{"cv=abc", "cv=0", "cv=-3"} {
		resp, err := http.Get(ts.URL + "/segment?video=2&seg=0&q=3&f=30&" + bad)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %s, want 400", bad, resp.Status)
		}
	}
	// A generation the server never published is simply not served.
	resp, err = http.Get(ts.URL + "/segment?video=2&seg=0&q=3&f=30&cv=99")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("future pin: status %s, want 410", resp.Status)
	}

	// Age generation 1 out of the bounded history.
	for i := 0; i < maxCatalogHistory; i++ {
		srv.SwapCatalog(h.cat)
	}
	resp, err = http.Get(ts.URL + "/segment?video=2&seg=0&q=3&f=30&cv=1&ptile=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted pin: status %s, want 410 Gone", resp.Status)
	}
	// The newest surviving history generation still resolves.
	resp, err = http.Get(fmt.Sprintf("%s/segment?video=2&seg=0&q=3&f=30&cv=%d&ptile=0",
		ts.URL, srv.CatalogVersion()-1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recent pin: status %s, want 200", resp.Status)
	}
}

// TestCatalogHotSwapSoak is the zero-downtime soak: a storm of full client
// sessions streams through the sharded tier while the online Ptile
// pipeline — fed by those same sessions' telemetry — regenerates the
// catalogue and hot-swaps every shard mid-storm. Run under -race. The
// contract:
//
//   - zero failed sessions, zero abandoned segments, zero retries — a swap
//     may never break an in-flight session (they finish pinned to the
//     generation their manifest was cut from);
//   - the router ledger partitions exactly and reconciles with the
//     per-shard resilience scrapes, swaps or not;
//   - after drain the process returns to its goroutine baseline.
func TestCatalogHotSwapSoak(t *testing.T) {
	h := newHarness(t)
	nClients := envInt("SWAP_SOAK_CLIENTS", 6)
	nSessions := envInt("SWAP_SOAK_SESSIONS", 3)
	nSwaps := envInt("SWAP_SOAK_SWAPS", 5)
	baseline := runtime.NumGoroutine()

	// The online pipeline, fed by client telemetry below.
	pcfg, err := ptilelive.DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	pcfg.Ptile.MinUsers = 2
	pipe, err := ptilelive.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}

	type shardParts struct {
		name  string
		srv   *Server
		chain *resilience.Chain
		reg   *obs.Registry
	}
	newShard := func(name string) (Shard, shardParts) {
		srv, err := NewServer(map[int]*sim.Catalog{2: h.cat}, video.DefaultEncoderConfig(), []float64{30, 27, 24, 21})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		chain, err := resilience.NewChain(resilience.Config{
			Registry:       reg,
			MaxInFlight:    64,
			MaxQueue:       256,
			QueueTimeout:   5 * time.Second,
			HandlerTimeout: 30 * time.Second,
		}, srv)
		if err != nil {
			t.Fatal(err)
		}
		return Shard{Name: name, Handler: chain}, shardParts{name: name, srv: srv, chain: chain, reg: reg}
	}
	shardA, partsA := newShard("swap-a")
	shardB, partsB := newShard("swap-b")
	parts := []shardParts{partsA, partsB}

	routerReg := obs.NewRegistry()
	rt, err := NewRouter(RouterConfig{Registry: routerReg}, shardA, shardB)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()

	var sessions, abandoned, retries atomic.Int64
	var sessionErr atomic.Value // first error, if any
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := NewClient(ClientConfig{
				BaseURL:     ts.URL,
				Phone:       power.Pixel3,
				MaxSegments: 8,
				ClientID:    fmt.Sprintf("swap-soak-%d", c),
				Telemetry: func(ev SegmentEvent) {
					pipe.IngestTelemetry(ev.Video, ev.Segment, ev.Center.X, ev.Center.Y)
				},
			})
			if err != nil {
				sessionErr.CompareAndSwap(nil, err)
				return
			}
			for s := 0; s < nSessions; s++ {
				report, err := client.StreamContext(context.Background(), 2, h.eval[(c+s)%len(h.eval)])
				if err != nil {
					sessionErr.CompareAndSwap(nil, fmt.Errorf("client %d session %d: %w", c, s, err))
					return
				}
				sessions.Add(1)
				abandoned.Add(int64(report.AbandonedSegments))
				retries.Add(int64(report.TotalRetries))
			}
		}(c)
	}

	// Mid-storm: rebuild from live telemetry and hot-swap both shards, then
	// invalidate the edge cache. Swaps land while sessions are in flight.
	mutDone := make(chan struct{})
	go func() {
		defer close(mutDone)
		for i := 0; i < nSwaps; i++ {
			time.Sleep(50 * time.Millisecond)
			if _, err := pipe.Rebuild(2); err != nil {
				t.Errorf("mid-storm rebuild: %v", err)
				return
			}
			next := pipe.ApplyToCatalog(h.cat)
			for _, p := range parts {
				p.srv.SwapCatalog(next)
			}
			rt.BumpCatalogVersion()
		}
	}()

	wg.Wait()
	<-mutDone

	if err, _ := sessionErr.Load().(error); err != nil {
		t.Fatalf("session failed during swap storm: %v", err)
	}
	if got := sessions.Load(); got != int64(nClients*nSessions) {
		t.Fatalf("completed %d sessions, want %d", got, nClients*nSessions)
	}
	if a, r := abandoned.Load(), retries.Load(); a != 0 || r != 0 {
		t.Fatalf("swap-attributable degradation: %d abandoned segments, %d retries; want 0, 0", a, r)
	}
	for _, p := range parts {
		if v := p.srv.CatalogVersion(); v != int64(nSwaps)+1 {
			t.Fatalf("%s: catalog version %d, want %d", p.name, v, nSwaps+1)
		}
	}
	if b := pipe.Current(2); b.Reports == 0 {
		t.Fatal("pipeline ingested no telemetry; the feedback loop is dead")
	}

	// Drain the chains and reconcile: ledger partition, ledger == scrape,
	// shard requests == chain terminal outcomes. A client can hold a whole
	// body before the handler that wrote it has returned and counted its
	// outcome, so close the server first: Close waits for every handler.
	for _, p := range parts {
		p.chain.StartDrain()
	}
	ts.Close()
	led := rt.Ledger()
	if led.Requests != led.CacheHits+led.ShardRequests+led.Unrouted {
		t.Fatalf("ledger does not partition: %+v", led)
	}
	if led.Unrouted != 0 {
		t.Fatalf("%d requests found no shard; the ring was never empty", led.Unrouted)
	}
	if led.CatalogVersion != int64(nSwaps) {
		t.Fatalf("router epoch %d, want %d bumps", led.CatalogVersion, nSwaps)
	}

	var routerText strings.Builder
	if err := routerReg.WritePrometheus(&routerText); err != nil {
		t.Fatal(err)
	}
	routerSamples, err := obs.ParsePrometheus(routerText.String())
	if err != nil {
		t.Fatal(err)
	}
	scraped := map[string]float64{}
	for _, s := range routerSamples {
		scraped[s.Series()] += s.Value
	}
	if got := scraped["router_requests_total"]; got != float64(led.Requests) {
		t.Fatalf("scraped router_requests_total %g != ledger %d", got, led.Requests)
	}
	if got := scraped["router_shard_requests_total"]; got != float64(led.ShardRequests) {
		t.Fatalf("scraped router_shard_requests_total %g != ledger %d", got, led.ShardRequests)
	}

	var chainTotal int64
	for _, p := range parts {
		var text strings.Builder
		if err := p.reg.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParsePrometheus(text.String())
		if err != nil {
			t.Fatal(err)
		}
		var terminal int64
		for _, s := range samples {
			if s.Name == resilience.MetricRequestsTotal {
				terminal += int64(s.Value)
			}
		}
		if snap := p.chain.Snapshot().Totals().Terminal(); snap != terminal {
			t.Fatalf("%s: scrape %d != snapshot %d", p.name, terminal, snap)
		}
		if perShard := led.PerShard[p.name]; perShard != terminal {
			t.Fatalf("%s: router counted %d requests, chain terminated %d", p.name, perShard, terminal)
		}
		chainTotal += terminal
	}
	if chainTotal != led.ShardRequests {
		t.Fatalf("chains terminated %d requests, router forwarded %d", chainTotal, led.ShardRequests)
	}

	// Goroutine-leak check after drain.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Logf("swap soak: %d sessions, %d requests (%d cache hits, %d shard), %d swaps, %d telemetry reports",
		sessions.Load(), led.Requests, led.CacheHits, led.ShardRequests, nSwaps, pipe.Current(2).Reports)
}
