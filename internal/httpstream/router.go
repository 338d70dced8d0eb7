package httpstream

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"time"

	"ptile360/internal/obs"
)

// This file is the sharded serving tier: a consistent-hash router spreading
// requests over N replica tile servers, with a hot-object edge cache in
// front (see edgecache.go). Each replica ("shard") usually arrives wrapped
// in its own resilience.Chain reporting to its own registry; the router
// keeps the fleet-wide roll-up: every request ends as exactly one of
// cache-hit, shard request, or unrouted, so
//
//	router_requests_total = router_cache_hits_total
//	                      + router_shard_requests_total
//	                      + router_unrouted_total
//
// and router_shard_requests_total reconciles exactly with the sum of the
// per-shard chains' outcome counters (the soak test enforces both).

// Ring is a consistent-hash ring with virtual nodes. Keys map to the first
// ring point clockwise from their hash, so adding a shard moves to it only
// the keys it now owns, and removing a shard moves only that shard's keys —
// every other mapping is untouched (the fuzz target pins both properties
// exactly). Ring is not safe for concurrent use; Router guards it.
type Ring struct {
	vnodes  int
	points  []ringPoint // sorted by hash
	members map[string]bool
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds an empty ring with the given virtual-node count per shard
// (0 means the 64 default; more vnodes → smoother key spread).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// ringHash is FNV-1a pushed through a 64-bit mix finalizer. Raw FNV
// barely avalanches when inputs differ only in a short suffix — "a#0" …
// "a#63" (and "…s=0" … "…s=499") land in one tight cluster, collapsing
// the ring into one arc per shard. The finalizer spreads them uniformly.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a shard's virtual nodes. Adding a present member is a no-op.
func (r *Ring) Add(shard string) {
	if r.members[shard] {
		return
	}
	r.members[shard] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{
			hash:  ringHash(fmt.Sprintf("%s#%d", shard, v)),
			shard: shard,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a shard's virtual nodes. Removing an absent member is a
// no-op.
func (r *Ring) Remove(shard string) {
	if !r.members[shard] {
		return
	}
	delete(r.members, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members returns the live shard names (unordered).
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for s := range r.members {
		out = append(out, s)
	}
	return out
}

// Lookup maps a key to its owning shard. ok is false on an empty ring.
func (r *Ring) Lookup(key string) (shard string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].shard, true
}

// Shard is one replica behind the router: a name (stable identity on the
// ring) and its handler, typically resilience.Chain → faultinject →
// Server.
type Shard struct {
	Name    string
	Handler http.Handler
}

// RouterConfig tunes the sharded tier.
type RouterConfig struct {
	// VNodes is the virtual-node count per shard (0 → 64).
	VNodes int
	// Cache configures the edge cache; a zero value uses the defaults.
	Cache EdgeCacheConfig
	// KeyFunc derives the ring key from a request. The default keys by
	// (path, video, seg) so all quality/frame-rate variants of a segment
	// land on one shard.
	KeyFunc func(*http.Request) string
	// Registry receives the router metrics; nil creates a private registry.
	Registry *obs.Registry
	// SpanRing resizes the router tracer's recent-spans ring (0 → 128).
	SpanRing int
}

// TierLedger is the router's fleet-wide outcome roll-up, read from the same
// counters the registry scrapes (so ledger and scrape cannot disagree).
type TierLedger struct {
	// Requests counts every request entering the router.
	Requests int64
	// CacheHits counts requests served from the edge cache or a shared
	// singleflight fill, i.e. without a shard request of their own.
	CacheHits int64
	// ShardRequests counts requests that reached a shard handler.
	ShardRequests int64
	// Unrouted counts requests refused because the ring was empty.
	Unrouted int64
	// PerShard maps shard name → requests that reached it.
	PerShard map[string]int64
	// CatalogVersion is the current cache-invalidation epoch.
	CatalogVersion int64
}

// Router is the sharded serving tier's front door.
type Router struct {
	mu       sync.RWMutex
	ring     *Ring
	handlers map[string]http.Handler
	keyFunc  func(*http.Request) string

	cache *EdgeCache
	reg   *obs.Registry

	requests  *obs.Counter
	hits      *obs.Counter
	shardReqs *obs.Counter
	unrouted  *obs.Counter
	version   *obs.Gauge
	perShard  map[string]*obs.Counter
	tracer    *obs.Tracer
	latency   *obs.Histogram
}

// NewRouter builds the tier over an initial shard set.
func NewRouter(cfg RouterConfig, shards ...Shard) (*Router, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	keyFunc := cfg.KeyFunc
	if keyFunc == nil {
		keyFunc = DefaultRingKey
	}
	rt := &Router{
		ring:     NewRing(cfg.VNodes),
		handlers: make(map[string]http.Handler),
		keyFunc:  keyFunc,
		cache:    NewEdgeCache(cfg.Cache),
		reg:      reg,
		perShard: make(map[string]*obs.Counter),
	}
	rt.requests = reg.Counter("router_requests_total", "Requests entering the sharded tier.")
	rt.hits = reg.Counter("router_cache_hits_total", "Requests served by the edge cache (stored entry or shared fill).")
	rt.shardReqs = reg.Counter("router_shard_requests_total", "Requests that reached a shard handler.")
	rt.unrouted = reg.Counter("router_unrouted_total", "Requests refused because no shard was live.")
	rt.version = reg.Gauge("router_catalog_version", "Current catalogue version (edge-cache epoch).")
	rt.tracer = obs.NewTracer(reg, "router_request")
	if cfg.SpanRing > 0 {
		rt.tracer.SetRingSize(cfg.SpanRing)
	}
	rt.latency = reg.Histogram("router_request_seconds", "Sharded-tier request latency at the router.", nil)
	reg.GaugeFunc("router_shards", "Live shard count.", func() float64 {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		return float64(len(rt.handlers))
	})
	reg.GaugeFunc("router_cache_entries", "Stored edge-cache entries.", func() float64 {
		return float64(rt.cache.Entries())
	})
	for _, s := range shards {
		if err := rt.AddShard(s); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// DefaultRingKey keys a request by (path, video, seg): every variant of a
// segment maps to one shard, spreading the catalogue across the tier.
func DefaultRingKey(r *http.Request) string {
	q := r.URL.Query()
	return r.URL.Path + "|v=" + q.Get("video") + "|s=" + q.Get("seg")
}

// Registry returns the registry carrying the router metrics.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Tracer returns the router's request tracer for /debug/spans mounting and
// SpanHub stitching.
func (rt *Router) Tracer() *obs.Tracer { return rt.tracer }

// AddShard inserts a replica and rebalances the ring (only keys the new
// shard now owns move to it).
func (rt *Router) AddShard(s Shard) error {
	if s.Name == "" || s.Handler == nil {
		return fmt.Errorf("httpstream: shard needs a name and a handler")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.handlers[s.Name]; dup {
		return fmt.Errorf("httpstream: duplicate shard %q", s.Name)
	}
	rt.handlers[s.Name] = s.Handler
	rt.ring.Add(s.Name)
	if _, ok := rt.perShard[s.Name]; !ok {
		rt.perShard[s.Name] = rt.reg.Counter("router_shard_requests_by_shard_total",
			"Requests that reached one shard.", obs.L("shard", s.Name))
	}
	return nil
}

// RemoveShard drops a replica; only its keys move (to their next ring
// point). Its request counter remains registered — history survives the
// shard.
func (rt *Router) RemoveShard(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.handlers[name]; !ok {
		return fmt.Errorf("httpstream: unknown shard %q", name)
	}
	delete(rt.handlers, name)
	rt.ring.Remove(name)
	return nil
}

// BumpCatalogVersion invalidates the whole edge cache: the epoch is part of
// every cache key, so entries of older versions can never be served again,
// and the store is flushed eagerly to release memory. Call it whenever a
// shard's catalogue changes.
func (rt *Router) BumpCatalogVersion() int64 {
	v := rt.cache.Bump()
	rt.version.Set(float64(v))
	return v
}

// Ledger reads the fleet-wide roll-up from the live counters.
func (rt *Router) Ledger() TierLedger {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	led := TierLedger{
		Requests:       int64(rt.requests.Value()),
		CacheHits:      int64(rt.hits.Value()),
		ShardRequests:  int64(rt.shardReqs.Value()),
		Unrouted:       int64(rt.unrouted.Value()),
		PerShard:       make(map[string]int64, len(rt.perShard)),
		CatalogVersion: int64(rt.version.Value()),
	}
	for name, c := range rt.perShard {
		led.PerShard[name] = int64(c.Value())
	}
	return led
}

// ServeHTTP implements http.Handler: pick the shard by consistent hash,
// then serve through the edge cache (manifest and segment GETs) or
// directly.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.requests.Inc()
	// The ring key names the span and picks the shard.
	key := rt.keyFunc(r)
	// Join (or start) the cross-tier trace: the router adopts the client's
	// trace id from the propagation headers, minting one for untraced
	// requests, and re-parents both the context and the forward headers so
	// shards — in-process or remote — continue the same trace.
	span := rt.tracer.Start(key)
	tc, _ := obs.TraceFromHeader(r.Header)
	span.WithTrace(tc)
	down := span.TraceContext()
	w.Header().Set(obs.TraceIDHeader, down.TraceID)
	down.SetHeader(r.Header)
	r = r.WithContext(obs.WithTraceContext(r.Context(), down))
	start := time.Now()
	defer func() {
		span.Stage("serve")
		span.End()
		rt.latency.ObserveExemplar(time.Since(start).Seconds(), down.TraceID)
	}()

	rt.mu.RLock()
	name, ok := rt.ring.Lookup(key)
	h := rt.handlers[name]
	counter := rt.perShard[name]
	rt.mu.RUnlock()
	span.Stage("route")
	if !ok || h == nil {
		rt.unrouted.Inc()
		http.Error(w, "router: no live shard", http.StatusServiceUnavailable)
		return
	}
	// Count a shard request at the moment the shard actually serves one —
	// a cache hit or a shared singleflight fill never increments this.
	toShard := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.shardReqs.Inc()
		counter.Inc()
		h.ServeHTTP(w, r)
	})
	if cacheable(r) {
		if served := rt.cache.Serve(w, r, toShard); served {
			rt.hits.Inc()
		}
		return
	}
	toShard.ServeHTTP(w, r)
}

// cacheable marks the hot read-only objects: manifest and segment GETs.
func cacheable(r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != "" {
		return false
	}
	return r.URL.Path == "/manifest" || r.URL.Path == "/segment"
}
