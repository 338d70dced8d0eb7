package httpstream

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// EdgeCacheConfig tunes the router's hot-object cache.
type EdgeCacheConfig struct {
	// MaxBodyBytes caps one stored body; larger responses stream through
	// uncached. 0 → 1 MiB.
	MaxBodyBytes int
	// MaxEntries caps stored objects; the oldest entry is evicted first.
	// 0 → 4096.
	MaxEntries int
}

// cachedResponse is one stored origin response.
type cachedResponse struct {
	status int
	header http.Header
	body   []byte
}

// flight is one in-progress fill. Waiters block on done; resp is non-nil
// only when the fill produced a storable response they may replay.
type flight struct {
	done chan struct{}
	resp *cachedResponse
}

// EdgeCache is the tier's hot-segment/manifest cache with singleflight
// fill: concurrent requests for one key produce a single origin request,
// and every waiter replays the captured response. Keys are prefixed with a
// version epoch; Bump advances the epoch, which both invalidates every
// stored entry and detaches in-progress fills (they complete under the old
// epoch's keys and are never served again).
//
// Only complete 200 responses whose body matches the declared
// Content-Length are stored — a fault-truncated body must not poison the
// cache (the chaos soak injects exactly that).
type EdgeCache struct {
	cfg     EdgeCacheConfig
	epoch   atomic.Int64
	mu      sync.Mutex
	entries map[string]*cachedResponse
	order   []string // insertion order for eviction
	flights map[string]*flight
}

// NewEdgeCache builds an empty cache.
func NewEdgeCache(cfg EdgeCacheConfig) *EdgeCache {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	return &EdgeCache{
		cfg:     cfg,
		entries: make(map[string]*cachedResponse),
		flights: make(map[string]*flight),
	}
}

// Entries returns the number of stored objects.
func (c *EdgeCache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Epoch returns the current version epoch.
func (c *EdgeCache) Epoch() int64 { return c.epoch.Load() }

// Bump advances the version epoch and flushes the store, returning the new
// epoch. Entries from older epochs are unreachable by construction (the
// epoch is part of the key); the flush just releases their memory at once.
func (c *EdgeCache) Bump() int64 {
	v := c.epoch.Add(1)
	c.mu.Lock()
	c.entries = make(map[string]*cachedResponse)
	c.order = nil
	c.mu.Unlock()
	return v
}

// key derives the epoch-qualified cache key: the full variant identity
// (path plus canonically ordered query — quality, frame rate, ptile index
// all distinguish entries) under the current version.
func (c *EdgeCache) key(r *http.Request) string {
	return "v" + strconv.FormatInt(c.epoch.Load(), 10) + "|" + r.URL.Path + "?" + r.URL.Query().Encode()
}

// Serve answers the request from the cache when possible, otherwise fills
// through next. It reports true when the response came from a stored entry
// or a shared in-progress fill — i.e. when next was NOT invoked for this
// request.
func (c *EdgeCache) Serve(w http.ResponseWriter, r *http.Request, next http.Handler) (hit bool) {
	key := c.key(r)
	c.mu.Lock()
	if resp, ok := c.entries[key]; ok {
		c.mu.Unlock()
		writeCached(w, resp)
		return true
	}
	if fl, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.resp != nil {
			writeCached(w, fl.resp)
			return true
		}
		// The fill failed or was uncacheable; go to the origin directly.
		next.ServeHTTP(w, r)
		return false
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	c.mu.Unlock()

	cw := &captureWriter{dst: w, max: c.cfg.MaxBodyBytes}
	completed := false
	// Finalize on every exit path — including a panicking origin handler
	// (an injected connection abort): waiters must never hang, and a
	// partial body must never be stored.
	defer func() {
		if completed && cw.storable() {
			resp := cw.snapshot()
			fl.resp = resp
			c.store(key, resp)
		}
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(fl.done)
	}()
	next.ServeHTTP(cw, r)
	completed = true
	return false
}

// store inserts an entry, evicting oldest-first beyond the entry cap.
func (c *EdgeCache) store(key string, resp *cachedResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[key]; dup {
		return
	}
	for len(c.entries) >= c.cfg.MaxEntries && len(c.order) > 0 {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.entries[key] = resp
	c.order = append(c.order, key)
}

// writeCached replays a stored response, marking it for observability.
func writeCached(w http.ResponseWriter, resp *cachedResponse) {
	h := w.Header()
	for k, vs := range resp.header {
		h[k] = vs
	}
	h.Set("X-Edge-Cache", "hit")
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// captureWriter tees the origin response to the requesting client while
// buffering up to max bytes for the cache. A 200 that declares a
// Content-Length within max gets its buffer allocated once, at that size;
// a body that declares more than max flips overflow before its first byte
// and is never buffered; any other body grows by append. Oversized bodies
// flip overflow and drop the buffer — the client still gets the full
// stream.
type captureWriter struct {
	dst         http.ResponseWriter
	status      int
	wroteHeader bool
	buf         []byte
	max         int
	overflow    bool
}

func (cw *captureWriter) Header() http.Header { return cw.dst.Header() }

func (cw *captureWriter) WriteHeader(code int) {
	if !cw.wroteHeader {
		cw.status = code
		cw.wroteHeader = true
		n, err := strconv.ParseInt(cw.dst.Header().Get("Content-Length"), 10, 64)
		switch {
		case err != nil:
			// No usable declared length: the body grows by append.
		case n > int64(cw.max):
			cw.overflow = true
		case code == http.StatusOK && n > 0:
			cw.buf = make([]byte, 0, n)
		}
	}
	cw.dst.WriteHeader(code)
}

func (cw *captureWriter) Write(p []byte) (int, error) {
	if !cw.wroteHeader {
		cw.WriteHeader(http.StatusOK)
	}
	if !cw.overflow {
		if len(cw.buf)+len(p) > cw.max {
			cw.overflow = true
			cw.buf = nil
		} else {
			cw.buf = append(cw.buf, p...)
		}
	}
	return cw.dst.Write(p)
}

// Flush forwards to the underlying writer so paced body writers keep
// working through the cache.
func (cw *captureWriter) Flush() {
	if f, ok := cw.dst.(http.Flusher); ok {
		f.Flush()
	}
}

// storable reports whether the captured response may enter the cache: a
// complete 200 whose body, when a Content-Length was declared, matches it.
func (cw *captureWriter) storable() bool {
	if cw.overflow || cw.status != http.StatusOK {
		return false
	}
	if cl := cw.dst.Header().Get("Content-Length"); cl != "" {
		n, err := strconv.ParseInt(cl, 10, 64)
		if err != nil || n != int64(len(cw.buf)) {
			return false
		}
	}
	return true
}

// snapshot packages the captured response for storage. The body buffer
// moves to the cache without a copy, so the capture writer is dead after
// the fill.
func (cw *captureWriter) snapshot() *cachedResponse {
	status := cw.status
	if !cw.wroteHeader {
		status = http.StatusOK
	}
	hdr := make(http.Header, len(cw.dst.Header()))
	for k, vs := range cw.dst.Header() {
		hdr[k] = append([]string(nil), vs...)
	}
	body := cw.buf
	cw.buf = nil
	return &cachedResponse{status: status, header: hdr, body: body}
}
