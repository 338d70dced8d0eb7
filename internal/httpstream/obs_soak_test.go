package httpstream

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptile360/internal/faultinject"
	"ptile360/internal/obs"
	"ptile360/internal/power"
	"ptile360/internal/resilience"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// TestObservabilitySoak extends the sharded-tier soak with the second
// observability tier: streaming clients (flight-recorded, SLO-monitored via
// an in-process TSDB) drive a router over chain-wrapped shards, a faulty
// shard is swapped in mid-run, and the test asserts the full loop:
//
//	(a) the availability SLO transitions to burning under the injected
//	    faults and recovers after the faulty shard drains out;
//	(b) a flight dump for an anomalous (abandoning) session reconciles
//	    exactly with that session's report entries;
//	(c) one cross-tier trace stitches client → router → chain → server
//	    spans under a shared trace id with a matching histogram exemplar.
func TestObservabilitySoak(t *testing.T) {
	h := newHarness(t)
	nTraffic := envInt("OBS_SOAK_CLIENTS", 3)
	nSegs := envInt("OBS_SOAK_SEGMENTS", 12)
	baseline := runtime.NumGoroutine()

	// --- edge-side observability: shared client registry, flight recorder,
	// TSDB, and a compressed-window availability SLO over abandons.
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 1, MaxDumps: 4096, Registry: reg})
	db := obs.NewTSDB(reg, obs.TSDBConfig{
		Resolutions: []obs.Resolution{{Step: 50 * time.Millisecond, Slots: 240}},
	})
	slos, err := obs.NewSLOEngine(db, reg, []obs.Objective{{
		Name:   "availability",
		Kind:   obs.SLOEventRatio,
		Target: 0.95,
		Bad:    []obs.Selector{obs.Sel("client_segments_total", obs.L("result", "abandoned"))},
		Total:  []obs.Selector{obs.Sel("client_segments_total")},
		Windows: []obs.BurnWindow{
			{Name: "soak", Long: 2 * time.Second, Short: 500 * time.Millisecond, Factor: 2},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	slos.OnBurn(func(name string) { flight.TriggerAll("slo:" + name) })
	db.Start()
	defer db.Stop()

	// --- sharded serving tier. Every shard carries its own registry with an
	// instrumented server behind a resilience chain, so the probe trace can
	// stitch all four tiers.
	type shardParts struct {
		name  string
		chain *resilience.Chain
		srv   *Server
	}
	newShard := func(name string, faulty bool) (Shard, shardParts) {
		srv, err := NewServer(map[int]*sim.Catalog{2: h.cat}, video.DefaultEncoderConfig(), []float64{30, 27, 24, 21})
		if err != nil {
			t.Fatal(err)
		}
		shardReg := obs.NewRegistry()
		srv.Instrument(shardReg, nil)
		var inner http.Handler = srv
		if faulty {
			// Every request 5xxes, so a segment owned by this shard fails
			// all ladder rungs and abandons — except the manifest, which
			// bypasses the injector so sessions always get off the ground.
			fh, err := faultinject.Middleware(faultinject.Profile{
				Name: "obs-soak", Error5xxProb: 1.0,
			}, 1, srv)
			if err != nil {
				t.Fatal(err)
			}
			inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/manifest" {
					srv.ServeHTTP(w, r)
					return
				}
				fh.ServeHTTP(w, r)
			})
		}
		chain, err := resilience.NewChain(resilience.Config{
			Registry:       shardReg,
			MaxInFlight:    16,
			MaxQueue:       32,
			QueueTimeout:   200 * time.Millisecond,
			HandlerTimeout: 5 * time.Second,
		}, inner)
		if err != nil {
			t.Fatal(err)
		}
		return Shard{Name: name, Handler: chain}, shardParts{name: name, chain: chain, srv: srv}
	}

	// Pick the faulty shard's name so that, in the chaos membership
	// {shard-a, shard-f*}, it deterministically owns a meaningful share of
	// the streamed segment keys — consistent hashing makes ownership a pure
	// function of the member names.
	faultyName := ""
	for i := 0; i < 32 && faultyName == ""; i++ {
		cand := fmt.Sprintf("shard-f%d", i)
		ring := NewRing(0)
		ring.Add("shard-a")
		ring.Add(cand)
		owned := 0
		for seg := 0; seg < nSegs; seg++ {
			if s, ok := ring.Lookup(fmt.Sprintf("/segment|v=2|s=%d", seg)); ok && s == cand {
				owned++
			}
		}
		if owned*3 >= nSegs { // at least a third of the segments abandon
			faultyName = cand
		}
	}
	if faultyName == "" {
		t.Fatal("no candidate faulty shard name owns enough segment keys")
	}

	shardA, partsA := newShard("shard-a", false)
	shardB, partsB := newShard("shard-b", false)
	shardF, partsF := newShard(faultyName, true)
	parts := []shardParts{partsA, partsB, partsF}

	routerReg := obs.NewRegistry()
	rt, err := NewRouter(RouterConfig{Registry: routerReg}, shardA, shardB)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()

	// --- traffic machinery: short back-to-back sessions, one report per
	// unique client id, never cancelled mid-session so every flight dump has
	// a completed report to reconcile against.
	sharedTransport := &http.Transport{DisableKeepAlives: true}
	defer sharedTransport.CloseIdleConnections()
	var repMu sync.Mutex
	reports := map[string]*SessionReport{}
	runSession := func(id string, viewer int) error {
		client, err := NewClient(ClientConfig{
			BaseURL:     ts.URL,
			Phone:       power.Pixel3,
			MaxSegments: nSegs,
			ClientID:    id,
			Metrics:     reg,
			Flight:      flight,
			Transport:   sharedTransport,
			Retry:       RetryPolicy{MaxAttempts: 1},
		})
		if err != nil {
			return err
		}
		rep, err := client.Stream(2, h.eval[viewer%len(h.eval)])
		if err != nil {
			return err
		}
		repMu.Lock()
		reports[id] = rep
		repMu.Unlock()
		return nil
	}
	startTraffic := func(prefix string) (stopFn func()) {
		var stop atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < nTraffic; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for s := 0; !stop.Load(); s++ {
					id := fmt.Sprintf("%s-g%d-s%d", prefix, g, s)
					if err := runSession(id, g); err != nil {
						t.Errorf("session %s: %v", id, err)
						return
					}
				}
			}(g)
		}
		return func() { stop.Store(true); wg.Wait() }
	}
	burning := func() bool {
		for _, st := range slos.Status() {
			if st.Name == "availability" {
				return st.Burning
			}
		}
		return false
	}
	waitBurning := func(want bool, deadline time.Duration) bool {
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			if burning() == want {
				return true
			}
			time.Sleep(20 * time.Millisecond)
		}
		return false
	}

	// --- phase 1: healthy warmup. The SLO must not burn.
	stop := startTraffic("warm")
	time.Sleep(600 * time.Millisecond)
	stop()
	if burning() {
		t.Fatal("availability SLO burning during healthy warmup")
	}

	// --- phase 2: chaos. Swap the always-5xx shard in for shard-b and
	// invalidate the edge cache so its keys actually reach it.
	if err := rt.AddShard(shardF); err != nil {
		t.Fatal(err)
	}
	if err := rt.RemoveShard("shard-b"); err != nil {
		t.Fatal(err)
	}
	rt.BumpCatalogVersion()
	// A long-lived sentinel session spans the whole chaos phase: the burn
	// transition's TriggerAll always finds at least one active session even
	// if every streaming session happens to be between runs at that instant.
	sentinel := flight.Session("sentinel")
	sentinel.Record(obs.FlightEvent{Kind: obs.FlightJoin, Seg: -1})
	stop = startTraffic("chaos")
	burned := waitBurning(true, 30*time.Second)
	stop()
	sentinel.Close()
	if !burned {
		t.Fatalf("availability SLO never burned under a shard that 5xxes everything; status %+v", slos.Status())
	}

	// --- phase 3: drain the faulty shard and recover.
	if err := rt.RemoveShard(faultyName); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddShard(shardB); err != nil {
		t.Fatal(err)
	}
	rt.BumpCatalogVersion()
	stop = startTraffic("drain")
	recovered := waitBurning(false, 30*time.Second)
	stop()
	if !recovered {
		t.Fatalf("availability SLO still burning after drain; status %+v", slos.Status())
	}

	// --- (b) flight dumps reconcile exactly with the session reports.
	dumps := flight.Dumps()
	abandonDumps, sloDumps := 0, 0
	for _, d := range dumps {
		if strings.HasPrefix(d.Reason, "slo:") {
			sloDumps++
		}
		if d.Reason != "abandon" {
			continue
		}
		abandonDumps++
		repMu.Lock()
		rep := reports[d.Session]
		repMu.Unlock()
		if rep == nil {
			t.Fatalf("abandon dump for session %q without a report", d.Session)
		}
		bySeg := map[int32]sim.SegmentTrace{}
		for _, r := range rep.Segments {
			bySeg[int32(r.Segment)] = r
		}
		sawAbandon := false
		for _, ev := range d.Events {
			switch ev.Kind {
			case obs.FlightJoin, obs.FlightLeave:
				continue
			}
			row, ok := bySeg[ev.Seg]
			if !ok {
				t.Fatalf("dump %s/%s: event for segment %d not in report", d.Session, d.Reason, ev.Seg)
			}
			// Every segment event is stamped on the session clock and
			// carries the step's fetch and stall seconds.
			if ev.TimeSec != row.WallSec || ev.DownloadSec != row.DownloadSec || ev.StallSec != row.StallSec {
				t.Fatalf("dump %s seg %d: %s event %+v != report row %+v", d.Session, ev.Seg, ev.Kind, ev, row)
			}
			switch ev.Kind {
			case obs.FlightDownload:
				if row.Abandoned {
					t.Fatalf("dump %s seg %d: download event for an abandoned row %+v", d.Session, ev.Seg, row)
				}
			case obs.FlightStall:
				if row.StallSec <= 0 {
					t.Fatalf("dump %s seg %d: stall event %+v for a row without stall", d.Session, ev.Seg, ev)
				}
			case obs.FlightAbandon:
				sawAbandon = true
				if !row.Abandoned {
					t.Fatalf("dump %s seg %d: abandon event %+v != report %+v", d.Session, ev.Seg, ev, row)
				}
			}
		}
		if !sawAbandon {
			t.Fatalf("abandon dump %s carries no abandon event: %+v", d.Session, d.Events)
		}
	}
	if abandonDumps == 0 {
		t.Fatal("chaos phase produced no abandon-triggered flight dumps")
	}
	if sloDumps == 0 {
		t.Fatal("the SLO burn transition triggered no flight dumps")
	}

	// --- (c) cross-tier trace: one cache-defeated probe session, kept
	// around so its segment tracer joins the span hub; a router histogram
	// exemplar must then name a trace that stitches client → router →
	// chain → server spans under the shared id.
	rt.BumpCatalogVersion()
	probe, err := NewClient(ClientConfig{
		BaseURL:     ts.URL,
		Phone:       power.Pixel3,
		MaxSegments: nSegs,
		ClientID:    "trace-probe",
		Metrics:     reg,
		Transport:   sharedTransport,
		Retry:       RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Stream(2, h.eval[0]); err != nil {
		t.Fatalf("probe session: %v", err)
	}
	probeTraces := obs.NewSpanHub(probe.Tracer()).Traces()
	if len(probeTraces) == 0 {
		t.Fatal("probe session minted no traces")
	}
	// Exemplar side: sample the router registry into a TSDB and read the
	// freshest exemplars off router_request_seconds, the way /debug/tsdb
	// surfaces them. The probe ran last and alone, so the newest exemplar
	// per touched bucket is one of its requests.
	routerDB := obs.NewTSDB(routerReg, obs.TSDBConfig{
		Resolutions: []obs.Resolution{{Step: time.Second, Slots: 4}},
	})
	routerDB.Sample(time.Now())
	hub := obs.NewSpanHub(probe.Tracer(), rt.Tracer())
	for _, p := range parts {
		hub.Add(p.chain.Tracer())
		hub.Add(p.srv.Tracer())
	}
	stitched := false
	for _, sj := range routerDB.Snapshot("router_request_seconds", 0).Series {
		for _, ex := range sj.Exemplars {
			if probeTraces[ex.TraceID] == nil {
				continue // stale exemplar from the chaos phases
			}
			spans := hub.Trace(ex.TraceID)
			names := map[string]bool{}
			for _, sp := range spans {
				if sp.TraceID != ex.TraceID {
					t.Fatalf("span %+v leaked into trace %s", sp, ex.TraceID)
				}
				names[sp.Name] = true
			}
			if names["client_segment"] && names["router_request"] &&
				names["resilience_request"] && names["server_request"] {
				stitched = true
			}
		}
	}
	if !stitched {
		t.Fatal("no probe exemplar trace stitched client + router + chain + server spans")
	}

	// --- goroutine-leak check, after stopping everything.
	db.Stop()
	ts.Close()
	sharedTransport.CloseIdleConnections()
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
	t.Logf("observability soak: %d sessions, %d dumps (%d abandon, %d slo), burned and recovered",
		len(reports), len(dumps), abandonDumps, sloDumps)
}
