package fleet

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ptile360/internal/lte"
	"ptile360/internal/sim"
)

// runPlanner builds and drains one engine with the given planner mode.
func runPlanner(t *testing.T, cfg sim.Config, specs []SessionSpec, planner PlannerMode, workers int) *Engine {
	t.Helper()
	fx := fixture(t)
	eng, err := New(Config{
		Catalog:           fx.cat,
		Sim:               cfg,
		Shards:            4,
		Workers:           workers,
		ViewportUpdateSec: 0.5,
		Planner:           planner,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestBatchedPlannerMatchesScalar is the fleet-level differential pin for
// the tentpole: across schemes (both Ours controllers), bandwidth seeds,
// and worker counts, the batched planner must produce
// per-session results bit-identical to the scalar planner — including the
// full per-segment traces — and an identical ledger apart from the batch
// decomposition counters themselves. It also checks the batch counters are
// consistent: scalar runs report zeros; batched runs account every step.
func TestBatchedPlannerMatchesScalar(t *testing.T) {
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

			scalar := runPlanner(t, cfg, specs, PlannerScalar, 1)
			sLed := scalar.Ledger()
			if sLed.BatchLeaders != 0 || sLed.BatchReplays != 0 || sLed.BatchFallbacks != 0 {
				t.Fatalf("scalar planner reported batch work: %+v", sLed)
			}
			for _, workers := range []int{1, 8} {
				batched := runPlanner(t, cfg, specs, PlannerBatched, workers)
				label := fmt.Sprintf("workers=%d", workers)
				for i := range scalar.Results() {
					requireSameResult(t, fmt.Sprintf("%s session %d", label, i),
						batched.Results()[i], scalar.Results()[i])
				}
				bLed := batched.Ledger()
				// Every join steps once and every segment completion
				// steps again unless it retires the session instead.
				want := bLed.Joined + bLed.Segments - bLed.Finished
				if steps := bLed.BatchLeaders + bLed.BatchReplays + bLed.BatchFallbacks; steps != want {
					t.Fatalf("%s: batch counters %d don't cover the %d steps taken",
						label, steps, want)
				}
				if bLed.BatchReplays == 0 {
					t.Fatalf("%s: batched planner never shared work: %+v", label, bLed)
				}
				bLed.BatchLeaders, bLed.BatchReplays, bLed.BatchFallbacks = 0, 0, 0
				if !reflect.DeepEqual(bLed, sLed) {
					t.Fatalf("%s: ledgers diverged:\nbatched: %+v\nscalar:  %+v", label, bLed, sLed)
				}
			}
		})
	}
}

// TestFleetSteadyStateAllocs bounds the event loop's steady-state
// allocation rate. After the join wave, advancing the fleet must stay well
// under one allocation per event: session state comes from shard arenas,
// estimator windows live inline, non-cancellable events skip the pending
// map, and batch replays reuse the leader's plan.
func TestFleetSteadyStateAllocs(t *testing.T) {
	fx := fixture(t)
	net := netFor(t, lte.ProfileWalking, 3)
	cfg := simConfig(t, sim.SchemePtile)
	cfg.RecordSegments = false // per-segment traces are real per-event allocations
	eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: 1, Workers: 1}, specsFor(fx, net, 500))
	if err != nil {
		t.Fatal(err)
	}
	// Warm through the join wave (joins end at t=3) plus a margin so arenas,
	// heaps, and batch scratch have reached steady-state capacity.
	if err := eng.Advance(5); err != nil {
		t.Fatal(err)
	}
	before := eng.Ledger().Events
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := eng.Advance(18); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	events := eng.Ledger().Events - before
	if events < 2000 {
		t.Fatalf("window too small to measure: %d events", events)
	}
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(events)
	t.Logf("%d events, %d allocs, %.4f allocs/event", events, m1.Mallocs-m0.Mallocs, perEvent)
	// The seed event loop ran at ~1.15 allocs/event; the budget here is the
	// regression tripwire for the rebuilt loop.
	if perEvent > 0.25 {
		t.Fatalf("steady-state allocation rate %.4f allocs/event exceeds 0.25", perEvent)
	}
}
