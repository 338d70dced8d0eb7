package ptile360

// Fleet-scale benches: BenchmarkFleetTick advances an N-session event-driven
// fleet by one virtual second per iteration, reporting events/op,
// events/sec and segments/sec alongside allocs/op. An event is a join, a
// segment completion or a leave. The 10k/100k/1M ladder is the scaling
// story: cost per event should stay flat while the session count grows three
// orders of magnitude (goroutines stay O(shards) throughout).
//
// Run via:
//
//	go test -run '^$' -bench '^BenchmarkFleetTick' -benchtime 10x -benchmem .
//
// TestFleetSteadyStateAllocs (internal/fleet) holds the allocations per tick
// of FleetTick10k, FleetTick100k and FleetTickObserved.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"ptile360/internal/fleet"
	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/obs"
	"ptile360/internal/power"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

type fleetBenchFixture struct {
	cat  *sim.Catalog
	eval []*headtrace.Trace
	net  *lte.Trace
	cfg  sim.Config
}

var (
	fleetBenchOnce sync.Once
	fleetBenchFx   *fleetBenchFixture
	fleetBenchErr  error
)

func fleetBenchFixtureOnce(b *testing.B) *fleetBenchFixture {
	b.Helper()
	fleetBenchOnce.Do(func() {
		fleetBenchFx, fleetBenchErr = buildFleetBenchFixture()
	})
	if fleetBenchErr != nil {
		b.Fatal(fleetBenchErr)
	}
	return fleetBenchFx
}

func buildFleetBenchFixture() (*fleetBenchFixture, error) {
	p, err := video.ProfileByID(2)
	if err != nil {
		return nil, err
	}
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = 14
	ds, err := headtrace.Generate(p, gcfg, 42)
	if err != nil {
		return nil, err
	}
	train, eval, err := ds.SplitTrainEval(10, 43)
	if err != nil {
		return nil, err
	}
	ccfg, err := sim.DefaultCatalogConfig()
	if err != nil {
		return nil, err
	}
	cat, err := sim.BuildCatalog(p, train, ccfg)
	if err != nil {
		return nil, err
	}
	ncfg, err := lte.ProfileConfig(lte.ProfileWalking)
	if err != nil {
		return nil, err
	}
	net, err := lte.Generate(600, ncfg, 42)
	if err != nil {
		return nil, err
	}
	cfg, err := sim.DefaultConfig(sim.SchemePtile, power.Pixel3)
	if err != nil {
		return nil, err
	}
	return &fleetBenchFixture{cat: cat, eval: eval, net: net, cfg: cfg}, nil
}

// newFleetBenchEngine builds the bench engine from a caller-shaped config;
// Catalog, Sim, and Shards are filled from the fixture.
func newFleetBenchEngine(b *testing.B, fx *fleetBenchFixture, sessions int, cfg fleet.Config) *fleet.Engine {
	b.Helper()
	specs := make([]fleet.SessionSpec, sessions)
	for i := range specs {
		specs[i] = fleet.SessionSpec{
			User:    fx.eval[i%len(fx.eval)],
			Net:     fx.net,
			JoinSec: 0.25 * float64(i%13),
		}
	}
	cfg.Catalog = fx.cat
	cfg.Sim = fx.cfg
	cfg.Shards = runtime.GOMAXPROCS(0)
	eng, err := fleet.New(cfg, specs)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// fleetTally sums the ledgers of the engines one bench advanced.
type fleetTally struct{ events, segments int }

func (c *fleetTally) add(eng *fleet.Engine) {
	led := eng.Ledger()
	c.events += led.Events
	c.segments += led.Segments
}

func (c *fleetTally) report(b *testing.B) {
	b.ReportMetric(float64(c.events)/float64(b.N), "events/op")
	b.ReportMetric(float64(c.events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(c.segments)/b.Elapsed().Seconds(), "segments/sec")
}

func benchmarkFleetTick(b *testing.B, sessions int) {
	fx := fleetBenchFixtureOnce(b)
	eng := newFleetBenchEngine(b, fx, sessions, fleet.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	horizon := 0.0
	var tally fleetTally
	for i := 0; i < b.N; i++ {
		if _, ok := eng.NextEventTime(); !ok {
			// Fleet drained: rebuild off the clock and keep ticking.
			b.StopTimer()
			tally.add(eng)
			eng = newFleetBenchEngine(b, fx, sessions, fleet.Config{})
			horizon = 0
			b.StartTimer()
		}
		horizon++
		if err := eng.Advance(horizon); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tally.add(eng)
	tally.report(b)
}

func BenchmarkFleetTick10k(b *testing.B)  { benchmarkFleetTick(b, 10_000) }
func BenchmarkFleetTick100k(b *testing.B) { benchmarkFleetTick(b, 100_000) }
func BenchmarkFleetTick1M(b *testing.B)   { benchmarkFleetTick(b, 1_000_000) }

// BenchmarkFleetTickObserved is BenchmarkFleetTick10k with the second
// observability tier on: the fleet metrics registry is sampled into an
// in-process TSDB once per virtual second, a quotient SLO is evaluated on
// every sample, and a 1-in-64 flight-recorder gate black-boxes sessions.
// The delta against BenchmarkFleetTick10k is the observability overhead on
// the fleet hot path — it must not disturb the steady-state alloc budget.
func BenchmarkFleetTickObserved(b *testing.B) {
	fx := fleetBenchFixtureOnce(b)
	newObserved := func() (*fleet.Engine, *obs.TSDB) {
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
			b.Fatal(err)
		}
		eng := newFleetBenchEngine(b, fx, 10_000, fleet.Config{
			Registry: reg,
			Flight:   flight,
		})
		return eng, db
	}
	eng, db := newObserved()
	b.ReportAllocs()
	b.ResetTimer()
	horizon := 0.0
	var tally fleetTally
	epoch := time.Now()
	for i := 0; i < b.N; i++ {
		if _, ok := eng.NextEventTime(); !ok {
			b.StopTimer()
			tally.add(eng)
			eng, db = newObserved()
			horizon = 0
			b.StartTimer()
		}
		horizon++
		if err := eng.Advance(horizon); err != nil {
			b.Fatal(err)
		}
		// One TSDB sample (and SLO evaluation) per virtual second, driven
		// on the bench clock so the sampling cost is inside the measurement.
		db.Sample(epoch.Add(time.Duration(horizon * float64(time.Second))))
	}
	b.StopTimer()
	tally.add(eng)
	tally.report(b)
}
