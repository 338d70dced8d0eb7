package experiments

import (
	"fmt"
	"sync"

	"ptile360/internal/geom"
	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/power"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// This file is the experiment engine's shared setup cache: a deterministic,
// concurrency-safe memoization layer over the expensive per-video artifacts
// (head-trace generation, the train/eval split, and catalogue construction),
// the LTE evaluation traces, and the aggregated scheme comparisons. Every
// figure harness goes through it, so a full `cmd/repro -exp all` sweep — or
// the whole benchmark suite — computes each distinct (video, scale, seed)
// setup and each (phone, scale) comparison exactly once, no matter how many
// figures or concurrent goroutines ask for it.
//
// Correctness rests on two properties:
//
//  1. The builders are pure functions of the key: setupVideo depends only on
//     (video ID, UsersPerVideo, TrainUsers, EvalUsers, Seed),
//     standardTraces only on (TraceSamples, Seed) and a comparison on the
//     phone and the whole scale, all captured in the keys below. A cache hit
//     therefore returns bit-identical artifacts.
//  2. The cached values are immutable after construction: sessions only read
//     the catalogue, traces, and splits (sim.Catalog's lazy plan tables carry
//     their own lock), and figures only read comparisons. A comparison holds
//     its aggregated cells only, never the sessions' results.
//
// Each key executes once even under concurrency (singleflight): the map entry
// is created under the cache lock and built under the entry's sync.Once, so
// concurrent figures requesting the same video share one build instead of
// racing on duplicates.

// memo is one of the cache's maps, from a key to its single build. It is
// guarded by cache.mu; builds run outside the lock.
type memo[K comparable, V any] map[K]*memoEntry[V]

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// maxCacheEntries bounds each cache map. Eviction simply clears the map:
// rebuilding is always correct (the builders are pure), and a sweep over
// many seeds (robustness) must not grow memory without bound.
const maxCacheEntries = 64

// get returns key's value, running build on the key's first request only;
// later and concurrent requests wait for that build and share its result.
// It counts the lookup in *hits or *misses.
func (m *memo[K, V]) get(key K, hits, misses *int, build func() (V, error)) (V, error) {
	cache.mu.Lock()
	e, ok := (*m)[key]
	if ok {
		*hits++
	} else {
		*misses++
		if *m == nil || len(*m) >= maxCacheEntries {
			*m = make(memo[K, V])
		}
		e = new(memoEntry[V])
		(*m)[key] = e
	}
	cache.mu.Unlock()

	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// setupKey captures every input setupVideo reads. TraceSamples is
// deliberately absent: the video setup does not depend on the LTE trace
// length.
type setupKey struct {
	videoID       int
	usersPerVideo int
	trainUsers    int
	evalUsers     int
	seed          int64
}

// datasetKey captures every input datasetFor reads. The train/eval split is
// deliberately absent: Fig. 5 consumes the raw dataset before any split, so
// keying on (video, users, seed) lets it share the generation with the
// setup builds.
type datasetKey struct {
	videoID  int
	numUsers int
	seed     int64
}

type traceKey struct {
	samples int
	seed    int64
}

// comparisonKey captures every input RunComparison reads: the phone and the
// whole scale, with the video list in order.
type comparisonKey struct {
	phone         power.Phone
	usersPerVideo int
	trainUsers    int
	evalUsers     int
	videos        string
	traceSamples  int
	seed          int64
}

// CacheStats counts setup-cache traffic, for observability and the
// cache-hit accounting tests.
type CacheStats struct {
	// SetupHits and SetupMisses count prepared-video lookups. A miss triggers
	// one build; concurrent requests for an in-flight key count as hits.
	SetupHits, SetupMisses int
	// DatasetHits and DatasetMisses count head-trace dataset lookups.
	DatasetHits, DatasetMisses int
	// TraceHits and TraceMisses count LTE-trace lookups.
	TraceHits, TraceMisses int
	// ComparisonHits and ComparisonMisses count RunComparison lookups.
	ComparisonHits, ComparisonMisses int
	// FoVLUTHits and FoVLUTMisses mirror the geom package's FoV-coverage
	// LUT counters (geom.FoVLUTCacheStats), merged here so one snapshot
	// covers every cache the experiment engine leans on.
	FoVLUTHits, FoVLUTMisses int
}

var cache struct {
	mu          sync.Mutex
	setups      memo[setupKey, *sim.Video]
	datasets    memo[datasetKey, *headtrace.Dataset]
	traces      memo[traceKey, [2]*lte.Trace]
	comparisons memo[comparisonKey, *Comparison]
	stats       CacheStats
	workers     int
}

// setupVideo returns the memoized prepared video for (id, scale), built
// at most once per distinct key across all figures and goroutines: the
// shared dataset (datasetFor) prepared by sim.PrepareVideo, whose Eval
// holds the scale's first EvalUsers held-out viewers. The returned video is
// shared — callers must treat it as read-only.
func setupVideo(id int, scale Scale) (*sim.Video, error) {
	key := setupKey{
		videoID:       id,
		usersPerVideo: scale.UsersPerVideo,
		trainUsers:    scale.TrainUsers,
		evalUsers:     scale.EvalUsers,
		seed:          scale.Seed,
	}
	return cache.setups.get(key, &cache.stats.SetupHits, &cache.stats.SetupMisses, func() (*sim.Video, error) {
		p, err := video.ProfileByID(id)
		if err != nil {
			return nil, err
		}
		ds, err := datasetFor(p, scale.UsersPerVideo, scale.Seed)
		if err != nil {
			return nil, err
		}
		v, err := sim.PrepareVideo(ds, scale.TrainUsers, scale.Seed, maxWorkers())
		if err != nil {
			return nil, err
		}
		if len(v.Eval) > scale.EvalUsers {
			v.Eval = v.Eval[:scale.EvalUsers]
		}
		return v, nil
	})
}

// datasetFor returns the memoized head-movement dataset for (video, user
// count, seed), generating it at most once per distinct key. Fig. 5 and the
// per-video setup builds share the same generation through it. The dataset
// is shared — callers must treat its traces as read-only.
func datasetFor(p video.Profile, numUsers int, seed int64) (*headtrace.Dataset, error) {
	key := datasetKey{videoID: p.ID, numUsers: numUsers, seed: seed}
	return cache.datasets.get(key, &cache.stats.DatasetHits, &cache.stats.DatasetMisses, func() (*headtrace.Dataset, error) {
		gcfg := headtrace.DefaultGeneratorConfig()
		gcfg.NumUsers = numUsers
		gcfg.Workers = maxWorkers()
		return headtrace.Generate(p, gcfg, seed)
	})
}

// standardTraces returns the memoized two evaluation network conditions for
// the scale's (TraceSamples, Seed). The traces are shared and read-only.
func standardTraces(scale Scale) (trace1, trace2 *lte.Trace, err error) {
	key := traceKey{samples: scale.TraceSamples, seed: scale.Seed}
	ts, err := cache.traces.get(key, &cache.stats.TraceHits, &cache.stats.TraceMisses, func() ([2]*lte.Trace, error) {
		t1, t2, err := lte.StandardTraces(scale.TraceSamples, scale.Seed+99)
		return [2]*lte.Trace{t1, t2}, err
	})
	return ts[0], ts[1], err
}

// comparisonFor returns the memoized comparison for (phone, scale),
// building it at most once per distinct key across all figures and
// goroutines. The comparison is shared — callers must treat it as
// read-only.
func comparisonFor(phone power.Phone, scale Scale) (*Comparison, error) {
	key := comparisonKey{
		phone:         phone,
		usersPerVideo: scale.UsersPerVideo,
		trainUsers:    scale.TrainUsers,
		evalUsers:     scale.EvalUsers,
		videos:        fmt.Sprint(scale.Videos),
		traceSamples:  scale.TraceSamples,
		seed:          scale.Seed,
	}
	return cache.comparisons.get(key, &cache.stats.ComparisonHits, &cache.stats.ComparisonMisses, func() (*Comparison, error) {
		return buildComparison(phone, scale)
	})
}

// ResetCaches drops every memoized setup, trace and comparison and zeroes
// the statistics. Intended for tests and long-lived processes that want to
// release the memory between sweeps; correctness never requires it.
func ResetCaches() {
	cache.mu.Lock()
	cache.setups = nil
	cache.datasets = nil
	cache.traces = nil
	cache.comparisons = nil
	cache.stats = CacheStats{}
	cache.mu.Unlock()
	geom.ResetFoVLUTCache()
}

// Stats returns a snapshot of the setup-cache counters, with the geom
// package's FoV-LUT counters folded in.
func Stats() CacheStats {
	cache.mu.Lock()
	s := cache.stats
	cache.mu.Unlock()
	s.FoVLUTHits, s.FoVLUTMisses, _ = geom.FoVLUTCacheStats()
	return s
}

// SetMaxWorkers caps the experiment engine's worker pools (session sweeps,
// per-trace switching speeds and per-video setup builds). n <= 0 restores
// the default (GOMAXPROCS). Returns the previous setting. Results are
// deterministic regardless of the worker count; the knob exists for
// benchmarking, CI, and the determinism tests.
func SetMaxWorkers(n int) (prev int) {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	prev = cache.workers
	if n < 0 {
		n = 0
	}
	cache.workers = n
	return prev
}

// maxWorkers reports the current worker-pool cap (0 = GOMAXPROCS).
func maxWorkers() int {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	return cache.workers
}
