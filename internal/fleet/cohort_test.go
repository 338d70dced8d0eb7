package fleet

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/obs"
	"ptile360/internal/sim"
)

// TestBatchedPlannerMatchesSim is the fleet-level differential pin for
// cohorts: across schemes (both Ours controllers), bandwidth seeds, and
// worker counts, every session's result — including the full per-segment
// trace — must be bit-identical to the blocking sim.Run although the
// members of a cohort share one State, and the ledger identical across
// worker counts. It also checks the cohort counters account every step and
// that cohorts actually shared work.
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
				requireCohortCounters(t, led)
				if led.BatchReplays == 0 {
					t.Fatalf("%s: cohorts never shared work: %+v", label, led)
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
// Cohort states come from shard arenas, estimator windows live inline, heap
// events carry no bookkeeping beyond the heap array, and a cohort steps once
// for all its members, so advancing the fleet stays far under one
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
		// run scratch are at capacity. The seed loop ran at ~1.15/event.
		{name: "steady", sessions: 500, shards: 1, workers: 1, warm: 5, step: 13, ticks: 1,
			perEvent: true, ceiling: 0.25},
		// Each ceiling is ≤ 1.1× the allocs/tick measured when it was set,
		// given in the trailing comment.
		bench("FleetTick10k", 10_000, false, 12),      // 11.0
		bench("FleetTick100k", 100_000, false, 12),    // 11.0
		bench("FleetTickObserved", 10_000, true, 240), // 218.7
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

// TestNewRejectsUnrunnableSpecs covers the specs the engine cannot run. A
// NaN join matches no join run, so Advance would spin on it forever, and a
// leave count beyond the int32 column would wrap.
func TestNewRejectsUnrunnableSpecs(t *testing.T) {
	fx := fixture(t)
	net := netFor(t, lte.ProfileWalking, 3)
	cfg := simConfig(t, sim.SchemePtile)
	tooMany := math.MaxInt32
	tooMany++ // 2^31, which an int32 stores as -2^31
	cases := []struct {
		name string
		spec func(*SessionSpec)
	}{
		{"nan-join", func(s *SessionSpec) { s.JoinSec = math.NaN() }},
		{"inf-join", func(s *SessionSpec) { s.JoinSec = math.Inf(1) }},
		{"negative-join", func(s *SessionSpec) { s.JoinSec = -0.5 }},
		{"negative-leave", func(s *SessionSpec) { s.LeaveAfterSegments = -1 }},
		{"leave-2^31", func(s *SessionSpec) { s.LeaveAfterSegments = tooMany }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs := specsFor(fx, net, 4)
			tc.spec(&specs[2])
			if _, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: 2}, specs); err == nil {
				t.Fatalf("New accepted %+v", specs[2])
			}
		})
	}
	// The largest count the column holds is accepted, and -0 is a join time.
	specs := specsFor(fx, net, 4)
	specs[1].LeaveAfterSegments = math.MaxInt32
	specs[2].JoinSec = math.Copysign(0, -1)
	if _, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: 2}, specs); err != nil {
		t.Fatal(err)
	}
}

// stepperRef is the reference a fleet session must equal bit for bit: a
// sim.Stepper loop over one viewer and trace, stopped after leave segments
// (0 streams them all) and settled with Finish.
func stepperRef(t testing.TB, cat *sim.Catalog, cfg sim.Config, user *headtrace.Trace, net *lte.Trace, leave int) *sim.Result {
	t.Helper()
	st, err := sim.NewStepper(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	state, err := st.NewState(user, net)
	if err != nil {
		t.Fatal(err)
	}
	for steps := 0; leave == 0 || steps < leave; steps++ {
		info, err := st.Step(state)
		if err != nil {
			t.Fatal(err)
		}
		if info.Done {
			break
		}
	}
	res, err := st.Finish(state)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// refKey names a stepperRef under one configuration.
type refKey struct {
	user  *headtrace.Trace
	net   *lte.Trace
	leave int
}

// requireCohortCounters checks that cohort steps and the member steps they
// served add up to the steps taken: one per join and one per completion
// that does not retire its session.
func requireCohortCounters(t *testing.T, led Ledger) {
	t.Helper()
	if steps, want := led.BatchLeaders+led.BatchReplays, led.Joined+led.Segments-led.Finished; steps != want || led.BatchFallbacks != 0 {
		t.Fatalf("cohort counters %d (+%d fallbacks) don't cover the %d steps taken: %+v", steps, led.BatchFallbacks, want, led)
	}
}

// TestFleetCohortsAmongPtiles runs the differential on the fixture whose
// sessions choose among Ptiles, with cohorts whose members leave at
// different segments while the cohort streams on: every member's Result,
// rows included, must equal a Stepper loop stopped at its leave count, bit
// for bit. After every Advance the test appends a row to each newly settled
// Result, as a caller may; a Result whose rows shared their array with the
// cohort's state would let that row overwrite one the cohort had already
// recorded for the members still streaming.
func TestFleetCohortsAmongPtiles(t *testing.T) {
	fx := multiPtileFixture(t)
	multi := 0
	for _, ptiles := range fx.cat.Ptiles {
		if len(ptiles) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("the fixture offers at most one Ptile per segment")
	}
	cases := []struct {
		scheme sim.Scheme
		shards int
		prof   lte.Profile
		seed   int64
	}{
		{sim.SchemePtile, 2, lte.ProfileWalking, 11},
		{sim.SchemeOurs, 3, lte.ProfileDriving, 23},
	}
	// Each (viewer, trace, join) key is repeated once per leave count, 24
	// specs apart, so on 2 or 3 shards every cohort has one member leaving
	// after each of these counts (0 streams the whole video).
	leaves := []int{0, 1, 7, 60, 200}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v/%v/seed=%d", tc.scheme, tc.prof, tc.seed), func(t *testing.T) {
			t.Parallel()
			cfg := simConfig(t, tc.scheme)
			nets := []*lte.Trace{netFor(t, tc.prof, tc.seed), netFor(t, tc.prof, tc.seed+1)}
			var specs []SessionSpec
			for _, leave := range leaves {
				for _, net := range nets {
					for _, u := range fx.eval {
						for _, join := range []float64{0, 0.5} {
							specs = append(specs, SessionSpec{User: u, Net: net, JoinSec: join, LeaveAfterSegments: leave})
						}
					}
				}
			}
			eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: tc.shards}, specs)
			if err != nil {
				t.Fatal(err)
			}
			settled := make([]bool, len(specs))
			for until := 1.0; ; until++ {
				if _, ok := eng.NextEventTime(); !ok {
					break
				}
				if err := eng.Advance(until); err != nil {
					t.Fatal(err)
				}
				for i, res := range eng.Results() {
					if res != nil && !settled[i] {
						settled[i] = true
						_ = append(res.PerSegment, sim.SegmentTrace{Quality: -1})
					}
				}
			}
			refs := make(map[refKey]*sim.Result)
			for i, spec := range specs {
				k := refKey{spec.User, spec.Net, spec.LeaveAfterSegments}
				if refs[k] == nil {
					refs[k] = stepperRef(t, fx.cat, cfg, k.user, k.net, k.leave)
				}
				requireSameResult(t, fmt.Sprintf("session %d (leave %d)", i, k.leave), eng.Results()[i], refs[k])
			}
			led := eng.Ledger()
			requireCohortCounters(t, led)
			if led.Finished != len(specs) || led.BatchReplays == 0 {
				t.Fatalf("fleet must drain with cohorts sharing steps: %+v", led)
			}
		})
	}
}

// cohortFuzz holds FuzzFleetCohorts' two traces and its memoized
// references, shared across inputs.
var cohortFuzz struct {
	once sync.Once
	nets [2]*lte.Trace
	mu   sync.Mutex
	refs map[sim.Scheme]map[refKey]*sim.Result
}

// FuzzFleetCohorts builds a small fleet on the short fixture from fuzzed
// specs. Each session takes two bytes: one picks its viewer, one of two
// traces and one of four join times (so cohorts form; −0 is among them and
// joins with +0), the other its leave count, 0 or 1 to past the video's
// end. Every session's Result, rows included, must equal a Stepper loop
// stopped at its leave count, bit for bit, and the cohort counters must
// cover every step.
func FuzzFleetCohorts(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 9, 1, 0, 32, 2, 32, 0}, uint8(0), false)
	f.Add([]byte{2, 1, 66, 0, 2, 24, 130, 5, 2, 17, 98, 0, 226, 4}, uint8(1), true)
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 25, 129, 0, 129, 12}, uint8(3), false)
	f.Fuzz(func(t *testing.T, data []byte, shards uint8, ours bool) {
		n := min(len(data)/2, 48)
		if n == 0 {
			return
		}
		fx := fixture(t)
		cohortFuzz.once.Do(func() {
			cohortFuzz.nets = [2]*lte.Trace{netFor(t, lte.ProfileWalking, 3), netFor(t, lte.ProfileDriving, 9)}
			cohortFuzz.refs = make(map[sim.Scheme]map[refKey]*sim.Result)
		})
		scheme := sim.SchemePtile
		if ours {
			scheme = sim.SchemeOurs
		}
		cfg := simConfig(t, scheme)
		joins := [4]float64{0, math.Copysign(0, -1), 0.25, 2}
		specs := make([]SessionSpec, n)
		for i := range specs {
			a, b := data[2*i], data[2*i+1]
			specs[i] = SessionSpec{
				User:               fx.eval[int(a&31)%len(fx.eval)],
				Net:                cohortFuzz.nets[a>>7],
				JoinSec:            joins[a>>5&3],
				LeaveAfterSegments: int(b) % (len(fx.cat.Content) + 2),
			}
		}
		eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: 1 + int(shards%4)}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		cohortFuzz.mu.Lock()
		defer cohortFuzz.mu.Unlock()
		refs := cohortFuzz.refs[scheme]
		if refs == nil {
			refs = make(map[refKey]*sim.Result)
			cohortFuzz.refs[scheme] = refs
		}
		for i, spec := range specs {
			k := refKey{spec.User, spec.Net, spec.LeaveAfterSegments}
			if refs[k] == nil {
				refs[k] = stepperRef(t, fx.cat, cfg, k.user, k.net, k.leave)
			}
			requireSameResult(t, fmt.Sprintf("session %d %+v", i, spec), eng.Results()[i], refs[k])
		}
		requireCohortCounters(t, eng.Ledger())
	})
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
