package httpstream

import (
	"io"
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

// chunkSize is the unit of the tier's byte path: the server writes segment
// bodies in slices of the filler, which is this long, the client reads
// them through buffers of it, and the edge cache stores bodies in chunks
// of it.
const chunkSize = 64 << 10

// chunkPool recycles the tier's 64 KiB buffers: the client's read buffers
// and the edge cache's body chunks.
var chunkPool = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// chunkedBody is a byte string held in pooled chunks, every one full but
// the last.
type chunkedBody struct {
	chunks []*[chunkSize]byte
	size   int
}

// append copies p onto the end of the body, taking chunks as it fills.
func (b *chunkedBody) append(p []byte) {
	for len(p) > 0 {
		off := b.size % chunkSize
		if off == 0 {
			b.chunks = append(b.chunks, chunkPool.Get().(*[chunkSize]byte))
		}
		n := copy(b.chunks[len(b.chunks)-1][off:], p)
		b.size += n
		p = p[n:]
	}
}

// writeTo writes the body to w chunk by chunk, stopping at the first error.
func (b *chunkedBody) writeTo(w io.Writer) {
	for i, ch := range b.chunks {
		if _, err := w.Write(ch[:min(chunkSize, b.size-i*chunkSize)]); err != nil {
			return
		}
	}
}

// recycle returns the chunks to the pool and empties the body.
func (b *chunkedBody) recycle() {
	for _, ch := range b.chunks {
		chunkPool.Put(ch)
	}
	*b = chunkedBody{}
}

// cachedResponse is one origin response held for replay. Its chunks go
// back to the pool when the last holder lets go: the store (until an
// eviction or a Bump flush) and every replay in progress, hits and
// singleflight waiters alike. refs counts the holders under EdgeCache.mu.
type cachedResponse struct {
	status int
	header http.Header
	body   chunkedBody
	refs   int
}

// flight is one in-progress fill. Waiters block on done; resp is non-nil
// only when the fill produced a storable response they may replay, and
// then the fill has taken one reference on it for each of the waiters.
type flight struct {
	done    chan struct{}
	resp    *cachedResponse
	waiters int // guarded by EdgeCache.mu
}

// EdgeCache is the tier's hot-segment/manifest cache with singleflight
// fill: concurrent requests for one key produce a single origin request,
// and every waiter replays the captured response. Keys are prefixed with a
// version epoch; Bump advances the epoch, which both invalidates every
// stored entry and detaches in-progress fills: their waiters still replay
// the body, but a fill that completes after a Bump stores nothing.
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
// epoch is part of the key); the flush just releases their chunks at once,
// or, for a body still being replayed, when its last replay ends.
func (c *EdgeCache) Bump() int64 {
	v := c.epoch.Add(1)
	c.mu.Lock()
	for _, resp := range c.entries {
		c.unref(resp)
	}
	c.entries = make(map[string]*cachedResponse)
	c.order = nil
	c.mu.Unlock()
	return v
}

// cacheKey derives the epoch-qualified cache key: the full variant identity
// (path plus canonically ordered query — quality, frame rate, ptile index
// all distinguish entries) under version epoch.
func cacheKey(epoch int64, r *http.Request) string {
	return "v" + strconv.FormatInt(epoch, 10) + "|" + r.URL.Path + "?" + r.URL.Query().Encode()
}

// Serve answers the request from the cache when possible, otherwise fills
// through next. It reports true when the response came from a stored entry
// or a shared in-progress fill — i.e. when next was NOT invoked for this
// request.
func (c *EdgeCache) Serve(w http.ResponseWriter, r *http.Request, next http.Handler) (hit bool) {
	epoch := c.epoch.Load()
	key := cacheKey(epoch, r)
	c.mu.Lock()
	if resp, ok := c.entries[key]; ok {
		resp.refs++
		c.mu.Unlock()
		c.replay(w, resp)
		return true
	}
	if fl, ok := c.flights[key]; ok {
		fl.waiters++
		c.mu.Unlock()
		<-fl.done
		if fl.resp != nil {
			c.replay(w, fl.resp)
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
	// partial body must never be stored. The waiters' references are
	// taken before they wake, so each of them replays the body even if a
	// flush or an eviction drops the entry first. A fill that a Bump
	// overtook stores nothing: its key is dead, and the entry would hold its
	// chunks until the next flush. A body that is neither stored nor awaited
	// returns its chunks when the fill lets go.
	defer func() {
		var resp *cachedResponse
		if completed && cw.storable() {
			resp = cw.snapshot()
		}
		cw.body.recycle()
		c.mu.Lock()
		delete(c.flights, key)
		if resp != nil {
			resp.refs = fl.waiters + 1 // the waiters' and the fill's own
			fl.resp = resp
			// Bump advances the epoch before it takes c.mu to flush, so a
			// fill that reads the old epoch here is stored before the flush.
			if epoch == c.epoch.Load() {
				c.store(key, resp)
			}
			c.unref(resp)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	next.ServeHTTP(cw, r)
	completed = true
	return false
}

// store inserts an entry, evicting oldest-first beyond the entry cap. The
// caller holds c.mu.
func (c *EdgeCache) store(key string, resp *cachedResponse) {
	if _, dup := c.entries[key]; dup {
		return
	}
	for len(c.entries) >= c.cfg.MaxEntries && len(c.order) > 0 {
		c.unref(c.entries[c.order[0]])
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	resp.refs++
	c.entries[key] = resp
	c.order = append(c.order, key)
}

// unref drops one holder of resp, recycling its chunks with the last. The
// caller holds c.mu.
func (c *EdgeCache) unref(resp *cachedResponse) {
	if resp.refs--; resp.refs == 0 {
		resp.body.recycle()
	}
}

// replay writes a response the caller holds a reference on, then drops
// that reference.
func (c *EdgeCache) replay(w http.ResponseWriter, resp *cachedResponse) {
	defer func() {
		c.mu.Lock()
		c.unref(resp)
		c.mu.Unlock()
	}()
	writeCached(w, resp)
}

// writeCached replays a stored response, marking it for observability.
func writeCached(w http.ResponseWriter, resp *cachedResponse) {
	h := w.Header()
	for k, vs := range resp.header {
		h[k] = vs
	}
	h.Set("X-Edge-Cache", "hit")
	w.WriteHeader(resp.status)
	resp.body.writeTo(w)
}

// captureWriter tees the origin response to the requesting client while
// copying up to max bytes of it into pooled chunks for the cache. A body
// that declares more than max flips overflow before its first byte and
// takes no chunk; one that outgrows max flips overflow and returns its
// chunks — the client still gets the full stream.
type captureWriter struct {
	dst         http.ResponseWriter
	status      int
	wroteHeader bool
	body        chunkedBody
	max         int
	overflow    bool
}

func (cw *captureWriter) Header() http.Header { return cw.dst.Header() }

func (cw *captureWriter) WriteHeader(code int) {
	if !cw.wroteHeader {
		cw.status = code
		cw.wroteHeader = true
		n, err := strconv.ParseInt(cw.dst.Header().Get("Content-Length"), 10, 64)
		cw.overflow = err == nil && n > int64(cw.max)
	}
	cw.dst.WriteHeader(code)
}

func (cw *captureWriter) Write(p []byte) (int, error) {
	if !cw.wroteHeader {
		cw.WriteHeader(http.StatusOK)
	}
	if !cw.overflow {
		if cw.body.size+len(p) > cw.max {
			cw.overflow = true
			cw.body.recycle()
		} else {
			cw.body.append(p)
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
		if err != nil || n != int64(cw.body.size) {
			return false
		}
	}
	return true
}

// snapshot packages the captured response for the cache. The chunks move
// to the response without a copy, so the capture writer is dead after the
// fill.
func (cw *captureWriter) snapshot() *cachedResponse {
	status := cw.status
	if !cw.wroteHeader {
		status = http.StatusOK
	}
	hdr := make(http.Header, len(cw.dst.Header()))
	for k, vs := range cw.dst.Header() {
		hdr[k] = append([]string(nil), vs...)
	}
	resp := &cachedResponse{status: status, header: hdr, body: cw.body}
	cw.body = chunkedBody{}
	return resp
}
