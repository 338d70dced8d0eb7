package fleet

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/obs"
	"ptile360/internal/sim"
)

// TestBatchedPlannerMatchesSim is the fleet-level differential pin for the
// batched planner: across schemes (both Ours controllers), bandwidth seeds,
// and worker counts, every session's result — including the full
// per-segment trace — must be bit-identical to the blocking sim.Run, and the
// ledger identical across worker counts. It also checks the batch counters
// account every step and that the planner actually shared work.
func TestBatchedPlannerMatchesSim(t *testing.T) {
	fx := fixture(t)
	cases := []struct {
		scheme sim.Scheme
		qoeMPC bool
		prof   lte.Profile
		seed   int64
	}{
		{sim.SchemePtile, false, lte.ProfileWalking, 3},
		{sim.SchemeCtile, false, lte.ProfileDriving, 9},
		{sim.SchemeOurs, false, lte.ProfileWalking, 3},
		{sim.SchemeOurs, false, lte.ProfileDriving, 11},
		{sim.SchemeOurs, true, lte.ProfileWalking, 5},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%v/qoempc=%v/seed=%d", tc.scheme, tc.qoeMPC, tc.seed)
		t.Run(name, func(t *testing.T) {
			net := netFor(t, tc.prof, tc.seed)
			cfg := simConfig(t, tc.scheme)
			cfg.UseQoEMPC = tc.qoeMPC
			specs := specsFor(fx, net, 200)
			refs := make(map[*headtrace.Trace]*sim.Result)
			for _, u := range fx.eval {
				ref, err := sim.Run(fx.cat, u, net, cfg)
				if err != nil {
					t.Fatal(err)
				}
				refs[u] = ref
			}

			var first Ledger
			for _, workers := range []int{1, 8} {
				eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: 4, Workers: workers}, specs)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("workers=%d", workers)
				for i, spec := range specs {
					requireSameResult(t, fmt.Sprintf("%s session %d", label, i),
						eng.Results()[i], refs[spec.User])
				}
				led := eng.Ledger()
				// Every join steps once and every segment completion
				// steps again unless it retires the session instead.
				want := led.Joined + led.Segments - led.Finished
				if steps := led.BatchLeaders + led.BatchReplays + led.BatchFallbacks; steps != want {
					t.Fatalf("%s: batch counters %d don't cover the %d steps taken",
						label, steps, want)
				}
				if led.BatchReplays == 0 {
					t.Fatalf("%s: batched planner never shared work: %+v", label, led)
				}
				if workers == 1 {
					first = led
				} else if !reflect.DeepEqual(led, first) {
					t.Fatalf("ledger depends on worker count:\nworkers=1: %+v\n%s: %+v", first, label, led)
				}
			}
		})
	}
}

// TestFleetSteadyStateAllocs bounds the event loop's allocation rate.
// Session state comes from shard arenas, estimator windows live inline,
// heap events carry no bookkeeping beyond the heap array, and batch replays
// reuse the leader's plan, so advancing the fleet stays far under one
// allocation per event. The first row measures steady state after the join
// wave. The others hold the fleet benches' op on this package's fixture: one
// virtual-second Advance over the first ten ticks after construction, which
// is what -benchtime 10x times. Shards, workers and GOMAXPROCS are pinned
// so the count does not depend on the host.
func TestFleetSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fx := fixture(t)
	net := netFor(t, lte.ProfileWalking, 3)
	cfg := simConfig(t, sim.SchemePtile)
	cfg.RecordSegments = false // per-segment traces are real per-event allocations
	type row struct {
		name            string
		sessions        int
		shards, workers int
		observed        bool    // add BenchmarkFleetTickObserved's obs tier
		warm, step      float64 // Advance(warm), then ticks Advances of step seconds
		ticks           int
		perEvent        bool // the ceiling is allocs/event, else allocs/tick
		ceiling         float64
	}
	bench := func(name string, sessions int, observed bool, ceiling float64) row {
		return row{name: name, sessions: sessions, shards: 2, workers: 2, observed: observed,
			step: 1, ticks: 10, ceiling: ceiling}
	}
	cases := []row{
		// Warmed past the join wave (joins end at t=3), so arenas, heaps and
		// batch scratch are at capacity. The seed loop ran at ~1.15/event.
		{name: "steady", sessions: 500, shards: 1, workers: 1, warm: 5, step: 13, ticks: 1,
			perEvent: true, ceiling: 0.25},
		// Each ceiling is ≤ 1.1× the allocs/tick measured when it was set,
		// given in the trailing comment.
		bench("FleetTick10k", 10_000, false, 16),      // 14.8
		bench("FleetTick100k", 100_000, false, 52),    // 47.3
		bench("FleetTickObserved", 10_000, true, 244), // 222.5
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fcfg := Config{Catalog: fx.cat, Sim: cfg, Shards: tc.shards, Workers: tc.workers}
			var db *obs.TSDB
			if tc.observed {
				fcfg.Registry, fcfg.Flight, db = observedTier(t)
			}
			eng, err := New(fcfg, specsFor(fx, net, tc.sessions))
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Advance(tc.warm); err != nil {
				t.Fatal(err)
			}
			before := eng.Ledger().Events
			epoch := time.Unix(0, 0)
			// A GC cycle adds runtime allocations of its own.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 1; i <= tc.ticks; i++ {
				now := tc.warm + float64(i)*tc.step
				if err := eng.Advance(now); err != nil {
					t.Fatal(err)
				}
				if db != nil {
					db.Sample(epoch.Add(time.Duration(now * float64(time.Second))))
				}
			}
			runtime.ReadMemStats(&m1)
			allocs := float64(m1.Mallocs - m0.Mallocs)
			events := eng.Ledger().Events - before
			if events < 2000 {
				t.Fatalf("window too small to measure: %d events", events)
			}
			perTick, perEvent := allocs/float64(tc.ticks), allocs/float64(events)
			t.Logf("%d events, %.0f allocs: %.1f allocs/tick, %.4f allocs/event", events, allocs, perTick, perEvent)
			got, unit := perTick, "tick"
			if tc.perEvent {
				got, unit = perEvent, "event"
			}
			if got > tc.ceiling {
				t.Fatalf("%.4f allocs/%s exceeds the ceiling %v", got, unit, tc.ceiling)
			}
		})
	}
}

// observedTier is BenchmarkFleetTickObserved's second observability tier: a
// registry sampled into a TSDB, a quotient SLO evaluated on every sample,
// and a 1-in-64 flight recorder.
func observedTier(t *testing.T) (*obs.Registry, *obs.FlightRecorder, *obs.TSDB) {
	t.Helper()
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 64, Registry: reg})
	db := obs.NewTSDB(reg, obs.TSDBConfig{Resolutions: []obs.Resolution{
		{Step: time.Second, Slots: 120},
		{Step: 10 * time.Second, Slots: 90},
	}})
	if _, err := obs.NewSLOEngine(db, reg, []obs.Objective{{
		Name:    "stall",
		Kind:    obs.SLOQuotient,
		Num:     []obs.Selector{obs.Sel("fleet_stall_seconds_total")},
		Den:     []obs.Selector{obs.Sel("fleet_segments_total")},
		Budget:  0.05,
		Windows: obs.BurnWindows(time.Second),
	}}); err != nil {
		t.Fatal(err)
	}
	return reg, flight, db
}
