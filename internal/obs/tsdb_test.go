package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestTSDBCounterDelta: a counter advancing a fixed amount per tick yields
// exact window deltas at every resolution, and the coarser rings sample on
// their stride.
func TestTSDBCounterDelta(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("events_total", "test", L("kind", "a"))
	db := NewTSDB(reg, TSDBConfig{Resolutions: []Resolution{
		{Step: time.Second, Slots: 16},
		{Step: 4 * time.Second, Slots: 8},
	}})
	base := time.Unix(1000, 0)
	for i := 0; i < 13; i++ {
		db.Sample(base.Add(time.Duration(i) * time.Second))
		c.Add(5) // 5 events per second, added after the sample
	}

	got, ok := db.DeltaSum(Sel("events_total", L("kind", "a")), 4*time.Second)
	if !ok {
		t.Fatal("no data for 4s window")
	}
	if got != 20 {
		t.Fatalf("4s delta = %v, want 20", got)
	}
	got, ok = db.DeltaSum(Sel("events_total"), 10*time.Second)
	if !ok || got != 50 {
		t.Fatalf("10s delta = %v ok=%v, want 50", got, ok)
	}
	if _, ok := db.DeltaSum(Sel("missing_total"), time.Second); ok {
		t.Fatal("selector for unknown series reported data")
	}
}

// TestTSDBSelectorPrefix: a '*'-suffixed match value sums every series whose
// label value shares the prefix — the 5xx availability selector.
func TestTSDBSelectorPrefix(t *testing.T) {
	reg := NewRegistry()
	c500 := reg.Counter("requests_total", "test", L("code", "500"))
	c503 := reg.Counter("requests_total", "test", L("code", "503"))
	c200 := reg.Counter("requests_total", "test", L("code", "200"))
	db := NewTSDB(reg, TSDBConfig{Resolutions: []Resolution{{Step: time.Second, Slots: 8}}})

	base := time.Unix(2000, 0)
	db.Sample(base)
	c500.Add(3)
	c503.Add(4)
	c200.Add(100)
	db.Sample(base.Add(time.Second))

	bad, ok := db.DeltaSum(Sel("requests_total", L("code", "5*")), 2*time.Second)
	if !ok || bad != 7 {
		t.Fatalf("5* delta = %v ok=%v, want 7", bad, ok)
	}
	all, ok := db.DeltaSum(Sel("requests_total"), 2*time.Second)
	if !ok || all != 107 {
		t.Fatalf("total delta = %v ok=%v, want 107", all, ok)
	}
}

// TestTSDBHistogramWindow: windowed histogram deltas produce exact counts,
// Prometheus-style interpolated quantiles, and threshold fractions.
func TestTSDBHistogramWindow(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("latency_seconds", "test", []float64{0.1, 0.2, 0.4, 0.8})
	db := NewTSDB(reg, TSDBConfig{Resolutions: []Resolution{{Step: time.Second, Slots: 8}}})

	base := time.Unix(3000, 0)
	db.Sample(base)
	// 8 fast (≤0.1), 2 slow (0.4–0.8) observations.
	for i := 0; i < 8; i++ {
		h.Observe(0.05)
	}
	h.Observe(0.5)
	h.Observe(0.7)
	db.Sample(base.Add(time.Second))

	hw, ok := db.HistDelta(Sel("latency_seconds"), 2*time.Second)
	if !ok {
		t.Fatal("no histogram window")
	}
	if hw.Count != 10 {
		t.Fatalf("window count = %d, want 10", hw.Count)
	}
	if got := hw.FracAbove(0.2); got != 0.2 {
		t.Fatalf("FracAbove(0.2) = %v, want 0.2", got)
	}
	// p50 target = 5th of 8 observations in [0, 0.1): 0.1·5/8.
	if got, want := hw.Quantile(0.5), 0.1*5.0/8.0; abs(got-want) > 1e-12 {
		t.Fatalf("q50 = %v, want %v", got, want)
	}
	// p90 target = 9th observation, the 1st of 2 in [0.4, 0.8).
	if got, want := hw.Quantile(0.9), 0.4+0.4*0.5; abs(got-want) > 1e-12 {
		t.Fatalf("q90 = %v, want %v", got, want)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestTSDBRingWraps: deltas stay correct after the ring has wrapped several
// times over.
func TestTSDBRingWraps(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("wrap_total", "test")
	db := NewTSDB(reg, TSDBConfig{Resolutions: []Resolution{{Step: time.Second, Slots: 4}}})
	base := time.Unix(4000, 0)
	for i := 0; i < 50; i++ {
		db.Sample(base.Add(time.Duration(i) * time.Second))
		c.Add(2)
	}
	got, ok := db.DeltaSum(Sel("wrap_total"), 3*time.Second)
	if !ok || got != 6 {
		t.Fatalf("post-wrap 3s delta = %v ok=%v, want 6", got, ok)
	}
}

// TestTSDBMaxSeries: series beyond the cap are dropped and counted, never
// stored.
func TestTSDBMaxSeries(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "test")
	reg.Counter("b_total", "test")
	reg.Counter("c_total", "test")
	db := NewTSDB(reg, TSDBConfig{
		Resolutions: []Resolution{{Step: time.Second, Slots: 4}},
		MaxSeries:   2,
	})
	db.Sample(time.Unix(5000, 0))
	db.Sample(time.Unix(5001, 0))
	// Meta-metrics also register on reg, so the cap bites well before c_total.
	if n := len(db.Snapshot("", 0).Series); n != 2 {
		t.Fatalf("stored series = %d, want 2 (MaxSeries)", n)
	}
	if v := scrape(t, reg)["tsdb_series_dropped_total"]; v == 0 {
		t.Fatal("tsdb_series_dropped_total = 0, want > 0")
	}
}

// TestTSDBGoldenJSON pins the /debug/tsdb JSON contract: structure, point
// ordering, histogram quantiles, and the exemplar surface.
func TestTSDBGoldenJSON(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("gold_total", "test", L("k", "v"))
	h := reg.Histogram("gold_seconds", "test", []float64{0.1, 1})
	db := NewTSDB(reg, TSDBConfig{Resolutions: []Resolution{{Step: time.Second, Slots: 4}}})

	base := time.Unix(100, 0)
	db.Sample(base)
	c.Add(3)
	h.ObserveExemplar(0.05, "t-000900")
	db.Sample(base.Add(time.Second))

	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?series=gold")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		BaseStepSeconds float64 `json:"base_step_seconds"`
		Series          []struct {
			Series    string `json:"series"`
			Kind      string `json:"kind"`
			Exemplars []struct {
				BucketLE float64 `json:"bucket_le"`
				Value    float64 `json:"value"`
				TraceID  string  `json:"trace_id"`
			} `json:"exemplars"`
			Resolutions []struct {
				StepSeconds float64 `json:"step_seconds"`
				Points      []struct {
					T   float64 `json:"t"`
					V   float64 `json:"v"`
					Q50 float64 `json:"q50"`
				} `json:"points"`
			} `json:"resolutions"`
		} `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.BaseStepSeconds != 1 {
		t.Fatalf("base_step_seconds = %v, want 1", got.BaseStepSeconds)
	}
	if len(got.Series) != 2 {
		t.Fatalf("series count = %d, want 2 (filter 'gold')", len(got.Series))
	}
	// Sorted keys: gold_seconds before gold_total{k="v"}.
	hs, cs := got.Series[0], got.Series[1]
	if hs.Series != "gold_seconds" || hs.Kind != "histogram" {
		t.Fatalf("series[0] = %q kind %q, want gold_seconds histogram", hs.Series, hs.Kind)
	}
	if cs.Series != `gold_total{k="v"}` || cs.Kind != "counter" {
		t.Fatalf("series[1] = %q kind %q, want gold_total{k=\"v\"} counter", cs.Series, cs.Kind)
	}
	if len(hs.Exemplars) != 1 || hs.Exemplars[0].TraceID != "t-000900" || hs.Exemplars[0].Value != 0.05 {
		t.Fatalf("exemplars = %+v, want one with trace t-000900 value 0.05", hs.Exemplars)
	}
	pts := cs.Resolutions[0].Points
	if len(pts) != 2 || pts[0].V != 0 || pts[1].V != 3 {
		t.Fatalf("counter points = %+v, want [0 3]", pts)
	}
	if pts[0].T != 100 || pts[1].T != 101 {
		t.Fatalf("point times = %v %v, want 100 101", pts[0].T, pts[1].T)
	}
	hpts := hs.Resolutions[0].Points
	if len(hpts) != 2 || hpts[1].V != 1 {
		t.Fatalf("histogram points = %+v, want count 1 at second point", hpts)
	}
	// One observation at 0.05 in [0, 0.1): interpolated q50 = 0.05.
	if abs(hpts[1].Q50-0.05) > 1e-12 {
		t.Fatalf("q50 = %v, want 0.05", hpts[1].Q50)
	}
}

// TestTSDBOnSampleHookRunsUnlocked: hooks must be able to query the store
// (the SLO engine does exactly this on every tick).
func TestTSDBOnSampleHookRunsUnlocked(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hook_total", "test")
	db := NewTSDB(reg, TSDBConfig{Resolutions: []Resolution{{Step: time.Second, Slots: 4}}})
	var fired int
	db.OnSample(func(time.Time) {
		fired++
		db.DeltaSum(Sel("hook_total"), time.Second) // must not deadlock
	})
	c.Add(1)
	db.Sample(time.Unix(1, 0))
	db.Sample(time.Unix(2, 0))
	if fired != 2 {
		t.Fatalf("hook fired %d times, want 2", fired)
	}
}

// TestTSDBConcurrentHammer races writers, the sampler, and queries; the race
// detector is the assertion.
func TestTSDBConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hammer_total", "test")
	h := reg.Histogram("hammer_seconds", "test", nil)
	reg.GaugeFunc("hammer_gauge", "test", func() float64 { return 1 })
	db := NewTSDB(reg, TSDBConfig{Resolutions: []Resolution{
		{Step: time.Millisecond, Slots: 32},
		{Step: 4 * time.Millisecond, Slots: 8},
	}})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.ObserveExemplar(float64(i%10)/100, "t-hammer")
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := time.Unix(0, 0)
		for i := 0; i < 200; i++ {
			db.Sample(base.Add(time.Duration(i) * time.Millisecond))
		}
		close(stop)
	}()
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				db.DeltaSum(Sel("hammer_total"), 8*time.Millisecond)
				db.HistDelta(Sel("hammer_seconds"), 8*time.Millisecond)
				db.Snapshot("", 4)
			}
		}()
	}
	wg.Wait()

	// Settle deterministically: the 200 racing samples may all have run
	// before any writer was scheduled, so land one more increment and
	// sample it after the dust clears.
	c.Inc()
	db.Sample(time.Unix(0, 0).Add(200 * time.Millisecond))
	if got, ok := newestPoint(db, "hammer_total"); !ok || got <= 0 {
		t.Fatalf("newest hammer_total = %v ok=%v, want > 0", got, ok)
	}
}

// TestTSDBStartStop: the ticker goroutine samples and shuts down cleanly;
// Stop is idempotent.
func TestTSDBStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tick_total", "test").Add(1)
	db := NewTSDB(reg, TSDBConfig{Resolutions: []Resolution{{Step: 2 * time.Millisecond, Slots: 8}}})
	db.Start()
	db.Start() // second Start is a no-op
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, ok := newestPoint(db, "tick_total"); ok && v == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker never sampled")
		}
		time.Sleep(time.Millisecond)
	}
	db.Stop()
	db.Stop()
}

// newestPoint reads the newest base-resolution sample of the one stored
// series whose key contains name.
func newestPoint(db *TSDB, name string) (float64, bool) {
	snap := db.Snapshot(name, 1)
	if len(snap.Series) != 1 || len(snap.Series[0].Resolutions[0].Points) == 0 {
		return 0, false
	}
	return snap.Series[0].Resolutions[0].Points[0].V, true
}
