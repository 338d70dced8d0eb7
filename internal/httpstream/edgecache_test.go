package httpstream

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// serveCache runs one GET for target through the cache.
func serveCache(c *EdgeCache, origin http.Handler, target string) (rec *httptest.ResponseRecorder, hit bool) {
	rec = httptest.NewRecorder()
	hit = c.Serve(rec, httptest.NewRequest(http.MethodGet, target, nil), origin)
	return rec, hit
}

func TestEdgeCacheCapturesUnsizedBody(t *testing.T) {
	// A manifest is encoded straight into the writer with no
	// Content-Length: the capture grows by append and still replays
	// byte-identical.
	body := bytes.Repeat([]byte(`{"si":1.5,"ti":0.25},`), 4000)
	calls := 0
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Content-Type", "application/json")
		for rest := body; len(rest) > 0; {
			n := min(len(rest), 1000)
			w.Write(rest[:n])
			rest = rest[n:]
		}
	})
	c := NewEdgeCache(EdgeCacheConfig{})
	if rec, hit := serveCache(c, origin, "/manifest?video=2"); hit || !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatalf("fill: hit=%v, body %d bytes, want a miss passing %d bytes through", hit, rec.Body.Len(), len(body))
	}
	rec, hit := serveCache(c, origin, "/manifest?video=2")
	if !hit || calls != 1 {
		t.Fatalf("replay: hit=%v after %d origin calls, want a hit after 1", hit, calls)
	}
	if !bytes.Equal(rec.Body.Bytes(), body) || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("replayed %d bytes (%q), want the captured %d-byte manifest", rec.Body.Len(), rec.Header().Get("Content-Type"), len(body))
	}
}

func TestEdgeCacheDeclaredLengthSizing(t *testing.T) {
	// A declared length within MaxBodyBytes presizes nothing: the capture
	// takes one pooled chunk per 64 KiB written. One above it takes no
	// chunk and never ends up stored.
	const max = 1 << 20
	for _, tc := range []struct {
		declared   int64
		wantChunks int
	}{
		{500_000, 8},
		{max, 16},
		{max + 1, 0},
		{1 << 40, 0},
	} {
		cw := &captureWriter{dst: httptest.NewRecorder(), max: max}
		cw.Header().Set("Content-Length", strconv.FormatInt(tc.declared, 10))
		cw.WriteHeader(http.StatusOK)
		if len(cw.body.chunks) != 0 {
			t.Errorf("declared %d: %d chunks taken before the first byte, want 0", tc.declared, len(cw.body.chunks))
		}
		writePayload(cw, min(tc.declared, max))
		if len(cw.body.chunks) != tc.wantChunks {
			t.Errorf("declared %d: %d chunks after the body, want %d", tc.declared, len(cw.body.chunks), tc.wantChunks)
		}
		cw.body.recycle()
	}

	calls := 0
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Content-Length", strconv.FormatInt(1<<40, 10))
		w.Write([]byte("head of a body far too large to cache"))
	})
	c := NewEdgeCache(EdgeCacheConfig{MaxBodyBytes: max})
	for i := 0; i < 2; i++ {
		if _, hit := serveCache(c, origin, "/segment?video=2&seg=0&q=1"); hit {
			t.Fatal("response declaring 1<<40 bytes was served from the cache")
		}
	}
	if calls != 2 || c.Entries() != 0 {
		t.Fatalf("origin calls %d, entries %d: want 2 calls and nothing stored", calls, c.Entries())
	}

	// A body declared one byte over the cap and written in full, in the
	// server's 64 KiB writes, passes through whole without a byte buffered
	// and is not stored.
	const over = max + 1
	writes := 0
	origin = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := w.(*captureWriter)
		w.Header().Set("Content-Length", strconv.Itoa(over))
		for rest := over; rest > 0; {
			n := min(rest, 64<<10)
			w.Write(filler[:n])
			rest -= n
			writes++
			if len(cw.body.chunks) != 0 {
				t.Fatalf("after write %d: capture holds %d chunks, want 0", writes, len(cw.body.chunks))
			}
		}
	})
	c = NewEdgeCache(EdgeCacheConfig{MaxBodyBytes: max})
	rec, hit := serveCache(c, origin, "/segment?video=2&seg=1&q=1")
	if hit || rec.Body.Len() != over {
		t.Fatalf("hit=%v, client got %d bytes, want a miss passing all %d through", hit, rec.Body.Len(), over)
	}
	if writes != 17 || c.Entries() != 0 {
		t.Fatalf("%d writes, %d entries: want 17 writes and nothing stored", writes, c.Entries())
	}
}

// keyedBodyBytes is the keyed origin's body length: five chunks, the last
// partly used.
const keyedBodyBytes = 300_000

// keyedBody is the keyed origin's body for segment seg: its bytes depend on
// both seg and the offset, so a chunk of another body, or of another place
// in this one, shows.
func keyedBody(seg int) []byte {
	b := make([]byte, keyedBodyBytes)
	for k := range b {
		b[k] = byte(uint32(k)*2654435761>>24) ^ byte(seg*97+1)
	}
	return b
}

// keyedOrigin serves /segment?seg=s as keyedBody(s) with its length
// declared, in 40 kB writes that straddle chunk boundaries. With gate set,
// each request signals entered and waits for the gate to open.
type keyedOrigin struct {
	calls   atomic.Int64
	entered chan struct{}
	gate    chan struct{}
}

func (o *keyedOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.calls.Add(1)
	if o.gate != nil {
		select {
		case o.entered <- struct{}{}:
		default:
		}
		<-o.gate
	}
	seg, err := strconv.Atoi(r.URL.Query().Get("seg"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(keyedBodyBytes))
	for rest := keyedBody(seg); len(rest) > 0; {
		n := min(len(rest), 40_000)
		w.Write(rest[:n])
		rest = rest[n:]
	}
}

// heldWriter records a response and blocks in its second Write until
// release closes, so a replay can be held mid-body: its first chunk
// copied, the rest still to read.
type heldWriter struct {
	h       http.Header
	body    bytes.Buffer
	writes  int
	held    chan struct{}
	release chan struct{}
	done    chan struct{} // closed when the request returns
}

func newHeldWriter() *heldWriter {
	return &heldWriter{h: http.Header{}, held: make(chan struct{}), release: make(chan struct{}), done: make(chan struct{})}
}

func (w *heldWriter) Header() http.Header { return w.h }
func (w *heldWriter) WriteHeader(int)     {}
func (w *heldWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 2 {
		close(w.held)
		<-w.release
	}
	return w.body.Write(p)
}

// TestEdgeCacheReplayNeverReadsRecycledChunks holds replays mid-body while
// their entry is dropped and other fills take chunks from the pool: each
// replay must still deliver exactly its origin's bytes. Every request that
// joined a fill that completed storable replays it, even when a flush drops
// the entry before the waiter runs. GOMAXPROCS 1 keeps the pool on one P,
// so a chunk returned too early is the next one a fill takes.
func TestEdgeCacheReplayNeverReadsRecycledChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	segment := func(seg int) *http.Request {
		return httptest.NewRequest(http.MethodGet, fmt.Sprintf("/segment?video=2&seg=%d&q=1", seg), nil)
	}
	setup := func(t *testing.T, cfg EdgeCacheConfig, o *keyedOrigin) (*Router, func(segs ...int)) {
		rt, err := NewRouter(RouterConfig{Cache: cfg}, Shard{Name: "a", Handler: o})
		if err != nil {
			t.Fatal(err)
		}
		fill := func(segs ...int) {
			for _, seg := range segs {
				rec := httptest.NewRecorder()
				rt.ServeHTTP(rec, segment(seg))
				if !bytes.Equal(rec.Body.Bytes(), keyedBody(seg)) {
					t.Fatalf("fill of segment %d delivered the wrong bytes", seg)
				}
			}
		}
		return rt, fill
	}
	// replay starts a request for seg into a held writer.
	replay := func(rt *Router, seg int) *heldWriter {
		w := newHeldWriter()
		go func() {
			defer close(w.done)
			rt.ServeHTTP(w, segment(seg))
		}()
		return w
	}
	// finish releases each held replay and requires seg's bytes from the
	// cache, then the ledger's partition.
	finish := func(t *testing.T, rt *Router, seg int, ws []*heldWriter, wantShard int64) {
		t.Helper()
		for i, w := range ws {
			close(w.release)
			<-w.done
			if w.h.Get("X-Edge-Cache") != "hit" {
				t.Errorf("replay %d of segment %d was not served by the cache", i, seg)
			}
			if !bytes.Equal(w.body.Bytes(), keyedBody(seg)) {
				t.Errorf("replay %d of segment %d delivered %d bytes that differ from its origin's", i, seg, w.body.Len())
			}
		}
		led := rt.Ledger()
		if led.Requests != led.CacheHits+led.ShardRequests || led.ShardRequests != wantShard {
			t.Errorf("ledger %+v: want requests = hits + shard requests, %d shard requests", led, wantShard)
		}
	}

	t.Run("flush", func(t *testing.T) {
		rt, fill := setup(t, EdgeCacheConfig{}, &keyedOrigin{})
		fill(1)
		w := replay(rt, 1)
		<-w.held
		rt.BumpCatalogVersion()
		fill(2, 3, 4)
		finish(t, rt, 1, []*heldWriter{w}, 4)
	})

	t.Run("eviction", func(t *testing.T) {
		rt, fill := setup(t, EdgeCacheConfig{MaxEntries: 1}, &keyedOrigin{})
		fill(1)
		w := replay(rt, 1)
		<-w.held
		fill(2, 3) // storing 2 evicts 1, storing 3 evicts 2
		finish(t, rt, 1, []*heldWriter{w}, 3)
	})

	t.Run("singleflight", func(t *testing.T) {
		o := &keyedOrigin{entered: make(chan struct{}, 1), gate: make(chan struct{})}
		rt, fill := setup(t, EdgeCacheConfig{}, o)
		filled := make(chan struct{})
		go func() {
			defer close(filled)
			rt.ServeHTTP(httptest.NewRecorder(), segment(1))
		}()
		<-o.entered
		const waiters = 4
		ws := make([]*heldWriter, waiters)
		for i := range ws {
			ws[i] = replay(rt, 1)
		}
		awaitWaiters(rt.cache, segment(1), waiters)
		close(o.gate)
		<-filled
		// The flush comes before the waiters run, and the fills after it
		// take chunks while they are mid-body.
		rt.BumpCatalogVersion()
		fill(2)
		for _, w := range ws {
			<-w.held
		}
		fill(3, 4)
		finish(t, rt, 1, ws, 4)
		if calls := o.calls.Load(); calls != 4 {
			t.Errorf("origin saw %d requests, want 4 (one per segment)", calls)
		}
	})
}

// awaitWaiters returns once n requests have joined the fill in progress
// for r.
func awaitWaiters(c *EdgeCache, r *http.Request, n int) {
	key := cacheKey(c.Epoch(), r)
	for joined := 0; joined < n; {
		time.Sleep(time.Millisecond)
		c.mu.Lock()
		if fl := c.flights[key]; fl != nil {
			joined = fl.waiters
		}
		c.mu.Unlock()
	}
}

// TestEdgeCacheFillOvertakenByBump: a Bump that comes while a fill waits on
// its origin kills the fill's key, so the fill stores nothing, yet the
// fill's request and every waiter that joined it still get the body. The
// next request misses and stores under the new epoch.
func TestEdgeCacheFillOvertakenByBump(t *testing.T) {
	const target, waiters = "/segment?video=2&seg=1&q=1", 3
	o := &keyedOrigin{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	c := NewEdgeCache(EdgeCacheConfig{})
	recs := make([]*httptest.ResponseRecorder, 1+waiters)
	hits := make([]bool, len(recs))
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i], hits[i] = serveCache(c, o, target)
		}()
		if i == 0 {
			<-o.entered // request 0 fills, the others wait on it
		}
	}
	awaitWaiters(c, httptest.NewRequest(http.MethodGet, target, nil), waiters)
	c.Bump()
	close(o.gate)
	wg.Wait()
	if n := c.Entries(); n != 0 {
		t.Fatalf("%d entries after a fill that a Bump overtook, want 0", n)
	}
	for i, rec := range recs {
		if hits[i] != (i > 0) || !bytes.Equal(rec.Body.Bytes(), keyedBody(1)) {
			t.Errorf("request %d: hit=%v and %d bytes, want the fill's body (a hit for its waiters)", i, hits[i], rec.Body.Len())
		}
	}
	if rec, hit := serveCache(c, o, target); hit || !bytes.Equal(rec.Body.Bytes(), keyedBody(1)) {
		t.Fatalf("first request after the Bump: hit=%v and %d bytes, want a miss passing the body through", hit, rec.Body.Len())
	}
	if _, hit := serveCache(c, o, target); !hit || c.Entries() != 1 || o.calls.Load() != 2 {
		t.Fatalf("hit=%v with %d entries after %d origin calls: want the refill stored under the new epoch", hit, c.Entries(), o.calls.Load())
	}
}

// discardWriter drops the body, so the cache benches time the cache and
// not a recorder's buffer.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// benchSegmentBytes is about one Ptile segment body at mid quality.
const benchSegmentBytes = 500_000

// segmentOrigin answers like the server's segment handler: a declared
// length, then the filler in 64 KiB writes.
var segmentOrigin = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(benchSegmentBytes))
	writePayload(w, benchSegmentBytes)
})

// TestEdgeCacheMissAllocs holds the miss path's allocation: a flush and a
// refill of a 500 kB body, after warm-up, takes its chunks from the pool
// instead of allocating the body. The ceilings are at most 1.1× the counts
// measured when they were set, given in the trailing comments.
func TestEdgeCacheMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const maxBytes, maxAllocs = 2230, 39 // 2,033 B and 36.1 allocs
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A GC cycle would empty the pool and add allocations of its own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := NewEdgeCache(EdgeCacheConfig{})
	req := httptest.NewRequest(http.MethodGet, "/segment?video=2&seg=0&q=3&f=30&ptile=0", nil)
	w := &discardWriter{h: http.Header{}}
	miss := func() {
		c.Bump()
		if c.Serve(w, req, segmentOrigin) {
			t.Fatal("hit right after a flush")
		}
	}
	for i := 0; i < 10; i++ {
		miss()
	}
	const n = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		miss()
	}
	runtime.ReadMemStats(&m1)
	perBytes := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	perAllocs := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("%.0f B and %.1f allocs per miss", perBytes, perAllocs)
	if perBytes > maxBytes || perAllocs > maxAllocs {
		t.Fatalf("%.0f B and %.1f allocs per miss exceed the ceilings %d B and %d allocs", perBytes, perAllocs, maxBytes, maxAllocs)
	}
}

// BenchmarkEdgeCacheMiss fills the cache from the origin on every request:
// the capture of a 500 kB body and its hand-over to the store.
func BenchmarkEdgeCacheMiss(b *testing.B) {
	c := NewEdgeCache(EdgeCacheConfig{})
	req := httptest.NewRequest(http.MethodGet, "/segment?video=2&seg=0&q=3&f=30&ptile=0", nil)
	b.SetBytes(benchSegmentBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Bump()
		if c.Serve(&discardWriter{h: http.Header{}}, req, segmentOrigin) {
			b.Fatal("hit right after a flush")
		}
	}
}

// BenchmarkEdgeCacheHit replays a stored 500 kB body.
func BenchmarkEdgeCacheHit(b *testing.B) {
	c := NewEdgeCache(EdgeCacheConfig{})
	req := httptest.NewRequest(http.MethodGet, "/segment?video=2&seg=0&q=3&f=30&ptile=0", nil)
	c.Serve(&discardWriter{h: http.Header{}}, req, segmentOrigin)
	w := &discardWriter{h: http.Header{}}
	b.SetBytes(benchSegmentBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Serve(w, req, segmentOrigin) {
			b.Fatal("stored segment missed")
		}
	}
}
