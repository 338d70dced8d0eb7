package httpstream

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptile360/internal/faultinject"
	"ptile360/internal/obs"
	"ptile360/internal/resilience"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// envInt reads a positive integer knob from the environment, falling back
// to def — lets CI scale the soak without editing code.
func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// ringKeys is the fixed key corpus the rebalance tests map through the
// ring.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/segment|v=2|s=%d", i)
	}
	return keys
}

func ringSnapshot(r *Ring, keys []string) map[string]string {
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		if shard, ok := r.Lookup(k); ok {
			m[k] = shard
		}
	}
	return m
}

func TestRingExactRebalance(t *testing.T) {
	keys := ringKeys(500)
	r := NewRing(128)
	if _, ok := r.Lookup("x"); ok {
		t.Fatal("lookup on empty ring succeeded")
	}
	r.Add("a")
	r.Add("b")
	r.Add("c")
	before := ringSnapshot(r, keys)
	owned := map[string]int{}
	for _, s := range before {
		owned[s]++
	}
	for _, name := range []string{"a", "b", "c"} {
		if owned[name] == 0 {
			t.Fatalf("shard %s owns no keys out of %d; vnode spread is broken", name, len(keys))
		}
	}

	// Removing b moves exactly b's keys; a's and c's mappings are untouched.
	r.Remove("b")
	after := ringSnapshot(r, keys)
	for _, k := range keys {
		if after[k] == "b" {
			t.Fatalf("key %s maps to removed shard", k)
		}
		if before[k] != "b" && after[k] != before[k] {
			t.Fatalf("key %s moved %s→%s although b did not own it", k, before[k], after[k])
		}
	}

	// Re-adding b restores the original mapping exactly (hash points are
	// deterministic), which also proves Add moves only the keys the new
	// shard owns.
	r.Add("b")
	restored := ringSnapshot(r, keys)
	for _, k := range keys {
		if restored[k] != before[k] {
			t.Fatalf("key %s: %s after re-add, want %s", k, restored[k], before[k])
		}
	}
}

// FuzzConsistentHashRouter drives random add/remove sequences, checking the
// exact rebalance contract after every mutation: no key ever maps to a dead
// shard, and the set of moved keys is precisely the set the changed shard
// owns — removing s moves only s's keys, adding s moves only keys s now
// owns. (That is the strongest form of the "≤ expected fraction" property:
// nothing moves except what must.)
func FuzzConsistentHashRouter(f *testing.F) {
	f.Add([]byte{0, 1, 2, 9, 1, 0})
	f.Add([]byte{0, 0, 8, 1, 8, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := ringKeys(120)
		r := NewRing(16)
		live := map[string]bool{}
		prev := ringSnapshot(r, keys)
		for _, b := range data {
			name := fmt.Sprintf("shard-%d", b&7)
			adding := b&8 == 0
			if adding == live[name] {
				adding = !adding // flip to the meaningful operation
			}
			if adding {
				r.Add(name)
				live[name] = true
			} else {
				r.Remove(name)
				delete(live, name)
			}
			cur := ringSnapshot(r, keys)
			if len(live) == 0 {
				if len(cur) != 0 {
					t.Fatalf("empty ring still resolves %d keys", len(cur))
				}
				prev = cur
				continue
			}
			for _, k := range keys {
				owner, ok := cur[k]
				if !ok {
					t.Fatalf("key %s unresolved with %d live shards", k, len(live))
				}
				if !live[owner] {
					t.Fatalf("key %s maps to dead shard %s", k, owner)
				}
				if adding {
					if owner != name && len(prev) > 0 && owner != prev[k] {
						t.Fatalf("add %s moved key %s from %s to %s", name, k, prev[k], owner)
					}
				} else {
					if prev[k] != name && owner != prev[k] {
						t.Fatalf("remove %s moved key %s from %s to %s", name, k, prev[k], owner)
					}
				}
			}
			prev = cur
		}
	})
}

func TestRouterCacheSingleflightAndInvalidation(t *testing.T) {
	var origin atomic.Int64
	gate := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		origin.Add(1)
		<-gate
		w.Header().Set("Content-Length", "2")
		w.Write([]byte("ok"))
	})
	rt, err := NewRouter(RouterConfig{}, Shard{Name: "a", Handler: slow})
	if err != nil {
		t.Fatal(err)
	}
	// A client can read the whole body before the router's ServeHTTP has
	// returned and booked the request, so the ledger is read only once the
	// expected number of calls has completed.
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer served.Add(1)
		rt.ServeHTTP(w, r)
	}))
	defer ts.Close()
	awaitServed := func(want int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); served.Load() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d requests served, want %d", served.Load(), want)
			}
		}
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/manifest?video=2")
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) != "ok" {
				errs <- fmt.Errorf("body %q", body)
			}
		}()
	}
	// Let the requests pile onto the single in-progress fill, then open it.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := origin.Load(); got != 1 {
		t.Fatalf("origin saw %d requests for one key, want 1 (singleflight)", got)
	}
	awaitServed(n)
	led := rt.Ledger()
	if led.Requests != n || led.ShardRequests != 1 || led.CacheHits != n-1 {
		t.Fatalf("ledger %+v, want requests=%d shard=1 hits=%d", led, n, n-1)
	}

	// A stored entry serves without the origin; a version bump invalidates
	// it and the next request refills.
	resp, err := http.Get(ts.URL + "/manifest?video=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Edge-Cache") != "hit" {
		t.Fatal("second-round request missed the cache")
	}
	if got := origin.Load(); got != 1 {
		t.Fatalf("origin saw %d requests, want still 1", got)
	}
	rt.BumpCatalogVersion()
	resp, err = http.Get(ts.URL + "/manifest?video=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Edge-Cache") == "hit" {
		t.Fatal("request after catalog bump served from stale cache")
	}
	if got := origin.Load(); got != 2 {
		t.Fatalf("origin saw %d requests after bump, want 2 (refill)", got)
	}
}

func TestEdgeCacheRejectsTruncatedBody(t *testing.T) {
	// Declares 100 bytes, delivers 4 — whether the handler then aborts the
	// connection or returns normally, the body must never enter the cache.
	for _, abort := range []bool{true, false} {
		var origin atomic.Int64
		truncating := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			origin.Add(1)
			w.Header().Set("Content-Length", "100")
			w.Write([]byte("oops"))
			if abort {
				panic(http.ErrAbortHandler)
			}
		})
		rt, err := NewRouter(RouterConfig{}, Shard{Name: "a", Handler: truncating})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(rt)
		defer ts.Close()
		for i := 0; i < 3; i++ {
			resp, err := http.Get(ts.URL + "/segment?video=2&seg=0&q=1")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.Header.Get("X-Edge-Cache") == "hit" {
					t.Fatalf("abort=%v: truncated response was served from cache", abort)
				}
			}
		}
		if got := origin.Load(); got != 3 {
			t.Fatalf("abort=%v: origin saw %d requests, want 3 (nothing cacheable)", abort, got)
		}
	}
}

func TestRouterNoShards(t *testing.T) {
	rt, err := NewRouter(RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/manifest?video=2", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	led := rt.Ledger()
	if led.Requests != 1 || led.Unrouted != 1 {
		t.Fatalf("ledger %+v, want one unrouted request", led)
	}
}

func TestRouterShardLifecycle(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("x")) })
	rt, err := NewRouter(RouterConfig{}, Shard{Name: "a", Handler: ok})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AddShard(Shard{Name: "a", Handler: ok}); err == nil {
		t.Fatal("duplicate shard accepted")
	}
	if err := rt.AddShard(Shard{Name: "", Handler: ok}); err == nil {
		t.Fatal("anonymous shard accepted")
	}
	if err := rt.RemoveShard("ghost"); err == nil {
		t.Fatal("removing unknown shard succeeded")
	}
	if err := rt.AddShard(Shard{Name: "b", Handler: ok}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RemoveShard("a"); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after rebalance, want 200", rec.Code)
	}
	led := rt.Ledger()
	if led.PerShard["b"] != 1 || led.PerShard["a"] != 0 {
		t.Fatalf("per-shard counts %+v, want the request on b", led.PerShard)
	}
}

// TestShardedTierSoak is the tier's chaos acceptance: concurrent clients
// hammer a 3-shard router (one shard fault-injected) through the edge
// cache while the catalogue version is bumped and a fourth shard joins and
// leaves mid-storm. Afterwards the fleet-wide ledger must reconcile exactly
// with the per-shard /metrics scrapes:
//
//	requests = cache hits + shard requests + unrouted
//	shard requests = Σ over shards of Σ resilience_requests_total
//	per-shard router counters = that shard's chain terminal total
//
// and after drain the process returns to its goroutine baseline.
func TestShardedTierSoak(t *testing.T) {
	h := newHarness(t)
	nClients := envInt("TIER_SOAK_CLIENTS", 8)
	nReqs := envInt("TIER_SOAK_REQS", 150)
	baseline := runtime.NumGoroutine()

	type shardParts struct {
		name  string
		chain *resilience.Chain
		reg   *obs.Registry
	}
	newShard := func(name string, seed int64, faulty bool) (Shard, shardParts) {
		srv, err := NewServer(map[int]*sim.Catalog{2: h.cat}, video.DefaultEncoderConfig(), []float64{30, 27, 24, 21})
		if err != nil {
			t.Fatal(err)
		}
		var inner http.Handler = srv
		if faulty {
			profile := faultinject.Profile{
				Name:        "tier-soak",
				LatencyProb: 0.3, LatencyMin: 50 * time.Millisecond, LatencyMax: 300 * time.Millisecond,
				Error5xxProb: 0.10,
				ResetProb:    0.03,
				TruncateProb: 0.05, TruncateFrac: 0.4,
				TimeScale: 50,
			}
			inner, err = faultinject.Middleware(profile, seed, srv)
			if err != nil {
				t.Fatal(err)
			}
		}
		reg := obs.NewRegistry()
		chain, err := resilience.NewChain(resilience.Config{
			Registry:       reg,
			MaxInFlight:    16,
			MaxQueue:       32,
			QueueTimeout:   200 * time.Millisecond,
			HandlerTimeout: 5 * time.Second,
			Breaker:        nil, // outcomes stay admitted/shed: reconciliation covers the sum either way
		}, inner)
		if err != nil {
			t.Fatal(err)
		}
		return Shard{Name: name, Handler: chain}, shardParts{name: name, chain: chain, reg: reg}
	}

	shardA, partsA := newShard("shard-a", 1, false)
	shardB, partsB := newShard("shard-b", 2, true) // the chaos shard
	shardC, partsC := newShard("shard-c", 3, false)
	shardD, partsD := newShard("shard-d", 4, false) // joins and leaves mid-storm
	parts := []shardParts{partsA, partsB, partsC, partsD}

	routerReg := obs.NewRegistry()
	rt, err := NewRouter(RouterConfig{Registry: routerReg}, shardA, shardB, shardC)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()

	var attempts atomic.Int64
	var served, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			client := &http.Client{
				Transport: &http.Transport{DisableKeepAlives: true},
				Timeout:   30 * time.Second,
			}
			for i := 0; i < nReqs; i++ {
				var url string
				if rng.Intn(5) == 0 {
					url = fmt.Sprintf("%s/manifest?video=2", ts.URL)
				} else {
					url = fmt.Sprintf("%s/segment?video=2&seg=%d&q=%d&f=0&ptile=0",
						ts.URL, rng.Intn(10), 1+rng.Intn(5))
				}
				attempts.Add(1)
				resp, err := client.Get(url)
				if err != nil {
					failed.Add(1) // injected reset: terminal on both sides
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					served.Add(1)
				}
			}
		}(c)
	}

	// Mid-storm mutations: catalogue bumps plus a shard joining and
	// leaving, all while requests are in flight.
	mutDone := make(chan struct{})
	go func() {
		defer close(mutDone)
		for i := 0; i < 5; i++ {
			time.Sleep(40 * time.Millisecond)
			rt.BumpCatalogVersion()
			if i%2 == 0 {
				if err := rt.AddShard(shardD); err != nil {
					t.Errorf("mid-storm add: %v", err)
					return
				}
			} else {
				if err := rt.RemoveShard("shard-d"); err != nil {
					t.Errorf("mid-storm remove: %v", err)
					return
				}
			}
		}
		// Leave shard-d out for the drain phase.
		if err := rt.RemoveShard("shard-d"); err != nil {
			t.Errorf("final remove: %v", err)
		}
	}()

	wg.Wait()
	<-mutDone

	// Drain every chain; a post-drain probe must be shed with Retry-After.
	for _, p := range parts {
		p.chain.StartDrain()
	}
	probe, err := http.Get(ts.URL + "/segment?video=2&seg=999&q=1") // uncached key
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, probe.Body)
	probe.Body.Close()
	probes := int64(1)
	if probe.StatusCode != http.StatusServiceUnavailable || probe.Header.Get("Retry-After") == "" {
		t.Fatalf("post-drain probe: status %d retry-after %q; want shed with hint",
			probe.StatusCode, probe.Header.Get("Retry-After"))
	}

	// ---- Reconciliation ----
	// A client can hold a whole body before the handler that wrote it has
	// returned and counted its outcome, so close the server first: Close
	// waits for every handler.
	ts.Close()
	led := rt.Ledger()
	wantRequests := attempts.Load() + probes
	if led.Requests != wantRequests {
		t.Fatalf("router saw %d requests, clients issued %d", led.Requests, wantRequests)
	}
	if led.Requests != led.CacheHits+led.ShardRequests+led.Unrouted {
		t.Fatalf("ledger does not partition: %+v", led)
	}
	if led.Unrouted != 0 {
		t.Fatalf("%d requests found no shard; the ring was never empty", led.Unrouted)
	}
	if led.CacheHits == 0 {
		t.Fatal("the soak never hit the edge cache")
	}
	if served.Load() == 0 {
		t.Fatal("no request was ever served; the soak never exercised the happy path")
	}

	// The router's ledger IS its scrape: parse the Prometheus text and
	// compare the series values exactly.
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

	// Shard requests reconcile exactly with the per-shard chains' outcome
	// counters, shard by shard and in total.
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
	t.Logf("tier soak: %d requests, %d cache hits, %d shard requests, %d served, %d reset",
		led.Requests, led.CacheHits, led.ShardRequests, served.Load(), failed.Load())
}
