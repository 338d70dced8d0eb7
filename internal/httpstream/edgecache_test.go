package httpstream

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
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
	// A declared length within MaxBodyBytes sizes the capture buffer once;
	// one far above it neither preallocates nor ends up stored.
	const max = 1 << 20
	for _, tc := range []struct {
		declared int64
		wantCap  int
	}{
		{500_000, 500_000},
		{max, max},
		{max + 1, 0},
		{1 << 40, 0},
	} {
		cw := &captureWriter{dst: httptest.NewRecorder(), max: max}
		cw.Header().Set("Content-Length", strconv.FormatInt(tc.declared, 10))
		cw.WriteHeader(http.StatusOK)
		if cap(cw.buf) != tc.wantCap {
			t.Errorf("declared %d: capture buffer cap %d, want %d", tc.declared, cap(cw.buf), tc.wantCap)
		}
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
			if cap(cw.buf) != 0 {
				t.Fatalf("after write %d: capture buffer cap %d, want 0", writes, cap(cw.buf))
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
