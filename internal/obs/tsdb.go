package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The TSDB is the registry's short-term memory: a lock-cheap in-process
// time-series store that snapshots every registered series on a ticker into
// fixed ring-buffer windows at several resolutions (1s/10s/1m by default).
// Counters and histograms are stored as cumulative snapshots, so any window
// reduces to a delta between two ring slots — no per-tick subtraction state,
// and a missed tick degrades resolution instead of corrupting rates. Memory
// is bounded by construction: resolutions × slots × series (capped by
// MaxSeries).
//
// It exists to answer the questions instantaneous counters cannot — "did
// p99 stall-time regress over the last five minutes?" — without an external
// Prometheus: the SLO engine evaluates burn rates from it in-process, and
// /debug/tsdb serves it as JSON.

// Resolution is one rollup level: a ring of Slots samples spaced Step apart.
type Resolution struct {
	// Step is the sampling period of this ring. It must be a multiple of
	// the finest resolution's step (the base sampling interval).
	Step time.Duration
	// Slots is the ring length; the ring retains Step×Slots of history.
	Slots int
}

// DefaultResolutions keeps 2 minutes at 1s, 15 minutes at 10s, and one hour
// at 1m — ~270 slots per series.
func DefaultResolutions() []Resolution {
	return []Resolution{
		{Step: time.Second, Slots: 120},
		{Step: 10 * time.Second, Slots: 90},
		{Step: time.Minute, Slots: 60},
	}
}

// TSDBConfig configures a TSDB.
type TSDBConfig struct {
	// Resolutions are the rollup rings, finest first. Defaults to
	// DefaultResolutions. Steps must be positive multiples of the first
	// (finest) step.
	Resolutions []Resolution
	// MaxSeries bounds distinct stored series (0 → 4096). Series beyond
	// the cap are counted into tsdb_series_dropped_total and skipped.
	MaxSeries int
}

// ring is one resolution's sample window for one series.
type ring struct {
	stepNanos int64
	stride    int // base ticks between samples
	times     []int64
	vals      []float64 // counter cumulative / gauge value / histogram count
	sums      []float64 // histogram cumulative sum (nil for scalars)
	buckets   [][]uint64
	next, n   int
}

func newRing(stepNanos int64, stride, slots int, hist bool) *ring {
	r := &ring{
		stepNanos: stepNanos,
		stride:    stride,
		times:     make([]int64, slots),
		vals:      make([]float64, slots),
	}
	if hist {
		r.sums = make([]float64, slots)
		r.buckets = make([][]uint64, slots)
	}
	return r
}

// idx maps oldest-first position k (0 ≤ k < n) to a slot index.
func (r *ring) idx(k int) int {
	cap := len(r.times)
	return ((r.next-r.n+k)%cap + cap) % cap
}

func (r *ring) push(now int64, val float64, sum float64, bkts []uint64) {
	i := r.next
	r.times[i] = now
	r.vals[i] = val
	if r.sums != nil {
		r.sums[i] = sum
		if r.buckets[i] == nil || len(r.buckets[i]) != len(bkts) {
			r.buckets[i] = make([]uint64, len(bkts))
		}
		copy(r.buckets[i], bkts)
	}
	r.next = (r.next + 1) % len(r.times)
	if r.n < len(r.times) {
		r.n++
	}
}

// window locates the newest sample and the oldest sample within window of
// it, returning oldest-first positions. ok requires two distinct samples.
func (r *ring) window(window time.Duration) (first, last int, ok bool) {
	if r.n < 2 {
		return 0, 0, false
	}
	last = r.n - 1
	lastT := r.times[r.idx(last)]
	first = last
	for k := last - 1; k >= 0; k-- {
		if lastT-r.times[r.idx(k)] > window.Nanoseconds() {
			break
		}
		first = k
	}
	return first, last, first < last
}

// tsSeries is one stored series across all resolutions.
type tsSeries struct {
	key    string
	name   string
	labels []Label
	kind   Kind
	bounds []float64
	hist   *Histogram // exemplar source; nil for scalars
	rings  []*ring
}

// TSDB samples a Registry into bounded multi-resolution rings.
type TSDB struct {
	reg *Registry
	cfg TSDBConfig

	mu     sync.RWMutex
	series map[string]*tsSeries
	order  []string
	ticks  uint64

	nSeries atomic.Int64
	samples *Counter
	dropped *Counter

	hookMu sync.Mutex
	hooks  []func(now time.Time)

	startMu sync.Mutex
	stop    chan struct{}
	wg      sync.WaitGroup
}

// NewTSDB builds a TSDB over reg. Registry meta-metrics (tsdb_samples_total,
// tsdb_series, tsdb_series_dropped_total) are registered on reg itself, so
// the store observes its own health.
func NewTSDB(reg *Registry, cfg TSDBConfig) *TSDB {
	if len(cfg.Resolutions) == 0 {
		cfg.Resolutions = DefaultResolutions()
	}
	if cfg.MaxSeries <= 0 {
		cfg.MaxSeries = 4096
	}
	db := &TSDB{
		reg:    reg,
		cfg:    cfg,
		series: make(map[string]*tsSeries),
	}
	db.samples = reg.Counter("tsdb_samples_total", "Sampling ticks the TSDB has taken.")
	db.dropped = reg.Counter("tsdb_series_dropped_total", "Series skipped because the TSDB hit MaxSeries.")
	reg.GaugeFunc("tsdb_series", "Distinct series held by the TSDB.", func() float64 {
		return float64(db.nSeries.Load())
	})
	return db
}

// BaseStep returns the finest sampling period.
func (db *TSDB) BaseStep() time.Duration { return db.cfg.Resolutions[0].Step }

// OnSample registers fn to run after every Sample tick (outside the store
// lock, so fn may query the TSDB). The SLO engine hangs off this hook.
func (db *TSDB) OnSample(fn func(now time.Time)) {
	db.hookMu.Lock()
	db.hooks = append(db.hooks, fn)
	db.hookMu.Unlock()
}

// Start begins sampling on the base step in a background goroutine.
func (db *TSDB) Start() {
	db.startMu.Lock()
	defer db.startMu.Unlock()
	if db.stop != nil {
		return
	}
	db.stop = make(chan struct{})
	db.wg.Add(1)
	go func() {
		defer db.wg.Done()
		t := time.NewTicker(db.BaseStep())
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				db.Sample(now)
			case <-db.stop:
				return
			}
		}
	}()
}

// Stop halts the sampling goroutine. Safe to call when never started.
func (db *TSDB) Stop() {
	db.startMu.Lock()
	defer db.startMu.Unlock()
	if db.stop == nil {
		return
	}
	close(db.stop)
	db.wg.Wait()
	db.stop = nil
}

// Sample takes one snapshot of every registered series at time now. Exposed
// so tests (and virtual-time harnesses) can drive the store deterministically
// without the ticker.
func (db *TSDB) Sample(now time.Time) {
	nowN := now.UnixNano()
	db.mu.Lock()
	tick := db.ticks
	db.ticks++

	// Snapshot the family list under the registry lock, then walk each
	// family under its own lock — the same discipline WritePrometheus uses.
	db.reg.mu.Lock()
	fams := make([]*family, 0, len(db.reg.order))
	for _, n := range db.reg.order {
		fams = append(fams, db.reg.families[n])
	}
	db.reg.mu.Unlock()

	var scratch []uint64
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ts := db.seriesSlot(f, s)
			if ts == nil {
				continue
			}
			var val, sum float64
			var bkts []uint64
			switch f.kind {
			case KindCounter:
				val = s.c.Value()
			case KindGauge:
				if s.fn != nil {
					val = s.fn()
				} else {
					val = s.g.Value()
				}
			case KindHistogram:
				if cap(scratch) < len(s.h.counts) {
					scratch = make([]uint64, len(s.h.counts))
				}
				bkts = scratch[:len(s.h.counts)]
				var total uint64
				for i := range s.h.counts {
					bkts[i] = s.h.counts[i].Load()
					total += bkts[i]
				}
				// Count derives from the same bucket loads so count and
				// bucket deltas stay mutually consistent under concurrent
				// observes.
				val = float64(total)
				sum = s.h.Sum()
			}
			for _, rg := range ts.rings {
				if tick%uint64(rg.stride) == 0 {
					rg.push(nowN, val, sum, bkts)
				}
			}
		}
		f.mu.Unlock()
	}
	db.mu.Unlock()
	db.samples.Inc()

	db.hookMu.Lock()
	hooks := make([]func(time.Time), len(db.hooks))
	copy(hooks, db.hooks)
	db.hookMu.Unlock()
	for _, fn := range hooks {
		fn(now)
	}
}

// seriesSlot returns (creating on first sight) the stored series for a
// registry series. Called with db.mu and f.mu held.
func (db *TSDB) seriesSlot(f *family, s *series) *tsSeries {
	key := sanitizeName(f.name) + renderLabels(s.labels, "")
	ts, ok := db.series[key]
	if ok {
		return ts
	}
	if len(db.series) >= db.cfg.MaxSeries {
		db.dropped.Inc()
		return nil
	}
	base := db.cfg.Resolutions[0].Step
	ts = &tsSeries{
		key:    key,
		name:   sanitizeName(f.name),
		labels: s.labels,
		kind:   f.kind,
	}
	if f.kind == KindHistogram {
		ts.bounds = f.buckets
		ts.hist = s.h
	}
	for _, res := range db.cfg.Resolutions {
		stride := int(res.Step / base)
		if stride < 1 {
			stride = 1
		}
		ts.rings = append(ts.rings, newRing(res.Step.Nanoseconds(), stride, res.Slots, f.kind == KindHistogram))
	}
	db.series[key] = ts
	db.order = append(db.order, key)
	db.nSeries.Store(int64(len(db.series)))
	return ts
}

// Selector matches stored series: an exact metric name plus required label
// pairs. A match value ending in '*' is a prefix match — Sel("x_total",
// L("code", "5*")) sums every 5xx series of x_total.
type Selector struct {
	Name  string
	Match []Label
}

// Sel builds a Selector.
func Sel(name string, match ...Label) Selector { return Selector{Name: name, Match: match} }

func (sel Selector) matches(ts *tsSeries) bool {
	if ts.name != sel.Name {
		return false
	}
	for _, m := range sel.Match {
		found := false
		for _, l := range ts.labels {
			if l.Key != m.Key {
				continue
			}
			if strings.HasSuffix(m.Value, "*") {
				found = strings.HasPrefix(l.Value, strings.TrimSuffix(m.Value, "*"))
			} else {
				found = l.Value == m.Value
			}
			if found {
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// pickRing chooses the finest resolution whose retained span covers window
// and that has a computable window; falls back to the coarsest with data.
func pickRing(ts *tsSeries, window time.Duration) (*ring, int, int, bool) {
	for _, rg := range ts.rings {
		span := time.Duration(rg.stepNanos * int64(len(rg.times)-1))
		if span < window {
			continue
		}
		if first, last, ok := rg.window(window); ok {
			return rg, first, last, true
		}
	}
	// Nothing covers the window fully; take the coarsest ring's best effort.
	rg := ts.rings[len(ts.rings)-1]
	if first, last, ok := rg.window(window); ok {
		return rg, first, last, true
	}
	return nil, 0, 0, false
}

// DeltaSum sums, over all series the selector matches, the change across the
// window ending at each series' newest sample: counter value deltas, gauge
// value deltas, histogram observation-count deltas. ok reports whether at
// least one matching series had two samples inside the window.
func (db *TSDB) DeltaSum(sel Selector, window time.Duration) (float64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var total float64
	any := false
	for _, key := range db.order {
		ts := db.series[key]
		if !sel.matches(ts) {
			continue
		}
		rg, first, last, ok := pickRing(ts, window)
		if !ok {
			continue
		}
		total += rg.vals[rg.idx(last)] - rg.vals[rg.idx(first)]
		any = true
	}
	return total, any
}

// HistWindow is a histogram's observations within one window: per-bucket
// delta counts (last slot is +Inf) over the shared bounds.
type HistWindow struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the landing bucket, the way Prometheus histogram_quantile does.
// Returns 0 when the window holds no observations.
func (hw HistWindow) Quantile(q float64) float64 {
	if hw.Count == 0 || len(hw.Counts) == 0 {
		return 0
	}
	target := q * float64(hw.Count)
	var cum float64
	for i, c := range hw.Counts {
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		if i >= len(hw.Bounds) {
			// +Inf bucket: the largest finite bound is the best answer.
			if len(hw.Bounds) == 0 {
				return 0
			}
			return hw.Bounds[len(hw.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = hw.Bounds[i-1]
		}
		upper := hw.Bounds[i]
		frac := (target - (cum - float64(c))) / float64(c)
		return lower + (upper-lower)*frac
	}
	return hw.Bounds[len(hw.Bounds)-1]
}

// FracAbove returns the fraction of windowed observations strictly above
// the first bucket bound ≥ threshold (bucketed data cannot resolve finer).
func (hw HistWindow) FracAbove(threshold float64) float64 {
	if hw.Count == 0 {
		return 0
	}
	var above uint64
	for i, c := range hw.Counts {
		bound := math.Inf(1)
		if i < len(hw.Bounds) {
			bound = hw.Bounds[i]
		}
		if bound > threshold {
			above += c
		}
	}
	return float64(above) / float64(hw.Count)
}

// HistDelta merges the windowed observations of every histogram series the
// selector matches (they share bounds within one family).
func (db *TSDB) HistDelta(sel Selector, window time.Duration) (HistWindow, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var hw HistWindow
	any := false
	for _, key := range db.order {
		ts := db.series[key]
		if !sel.matches(ts) || ts.kind != KindHistogram {
			continue
		}
		rg, first, last, ok := pickRing(ts, window)
		if !ok {
			continue
		}
		fi, li := rg.idx(first), rg.idx(last)
		if hw.Counts == nil {
			hw.Bounds = ts.bounds
			hw.Counts = make([]uint64, len(rg.buckets[li]))
		}
		if len(rg.buckets[li]) != len(hw.Counts) {
			continue
		}
		for b := range hw.Counts {
			d := rg.buckets[li][b] - rg.buckets[fi][b]
			hw.Counts[b] += d
			hw.Count += d
		}
		hw.Sum += rg.sums[li] - rg.sums[fi]
		any = true
	}
	return hw, any
}

// --- JSON exposition (/debug/tsdb) ---

type tsdbPointJSON struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
	// Histogram points additionally carry the cumulative sum and the
	// delta-quantiles vs the previous slot in the same ring.
	Sum float64 `json:"sum,omitempty"`
	Q50 float64 `json:"q50,omitempty"`
	Q90 float64 `json:"q90,omitempty"`
	Q99 float64 `json:"q99,omitempty"`
}

type tsdbResJSON struct {
	StepSeconds float64         `json:"step_seconds"`
	Points      []tsdbPointJSON `json:"points"`
}

type tsdbSeriesJSON struct {
	Series      string        `json:"series"`
	Kind        string        `json:"kind"`
	Exemplars   []Exemplar    `json:"exemplars,omitempty"`
	Resolutions []tsdbResJSON `json:"resolutions"`
}

type tsdbJSON struct {
	BaseStepSeconds float64          `json:"base_step_seconds"`
	Series          []tsdbSeriesJSON `json:"series"`
}

// Snapshot renders the store for /debug/tsdb. seriesFilter (when non-empty)
// keeps only series whose key contains it; limit (when > 0) keeps only the
// newest limit points per ring.
func (db *TSDB) Snapshot(seriesFilter string, limit int) tsdbJSON {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := tsdbJSON{BaseStepSeconds: db.BaseStep().Seconds()}
	keys := make([]string, len(db.order))
	copy(keys, db.order)
	sort.Strings(keys)
	for _, key := range keys {
		if seriesFilter != "" && !strings.Contains(key, seriesFilter) {
			continue
		}
		ts := db.series[key]
		sj := tsdbSeriesJSON{Series: key, Kind: ts.kind.String()}
		if ts.hist != nil {
			sj.Exemplars = ts.hist.Exemplars()
		}
		for _, rg := range ts.rings {
			rj := tsdbResJSON{StepSeconds: time.Duration(rg.stepNanos).Seconds()}
			start := 0
			if limit > 0 && rg.n > limit {
				start = rg.n - limit
			}
			for k := start; k < rg.n; k++ {
				i := rg.idx(k)
				p := tsdbPointJSON{
					T: float64(rg.times[i]) / float64(time.Second),
					V: rg.vals[i],
				}
				if ts.kind == KindHistogram {
					p.Sum = rg.sums[i]
					if k > 0 {
						prev := rg.idx(k - 1)
						hw := HistWindow{Bounds: ts.bounds, Counts: make([]uint64, len(rg.buckets[i]))}
						for b := range hw.Counts {
							d := rg.buckets[i][b] - rg.buckets[prev][b]
							hw.Counts[b] = d
							hw.Count += d
						}
						p.Q50 = hw.Quantile(0.50)
						p.Q90 = hw.Quantile(0.90)
						p.Q99 = hw.Quantile(0.99)
					}
				}
				rj.Points = append(rj.Points, p)
			}
			sj.Resolutions = append(sj.Resolutions, rj)
		}
		out.Series = append(out.Series, sj)
	}
	return out
}

// Handler serves the store as JSON at /debug/tsdb. Query parameters:
// ?series=<substring> filters series, ?limit=<n> caps points per ring.
func (db *TSDB) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if v := r.URL.Query().Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				limit = n
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(db.Snapshot(r.URL.Query().Get("series"), limit))
	})
}
