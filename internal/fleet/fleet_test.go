package fleet

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/power"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// testFixture is a video catalogue with its pool of evaluation viewers.
type testFixture struct {
	profile video.Profile
	cat     *sim.Catalog
	eval    []*headtrace.Trace
}

// fixtureMemo builds one fixture once per test binary.
type fixtureMemo struct {
	once sync.Once
	fx   *testFixture
	err  error
}

func (m *fixtureMemo) get(t testing.TB, videoID, users, train, durationSec int) *testFixture {
	t.Helper()
	m.once.Do(func() { m.fx, m.err = buildFixture(videoID, users, train, durationSec) })
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.fx
}

var shortFixture, ptileFixture fixtureMemo

// fixture is a deliberately short synthetic video (24 s, so 24 one-second
// segments) with a small viewer pool: the differential suite runs hundreds
// of full sessions per case, and trajectory equivalence does not depend on
// the video length. It has one Ptile per segment.
func fixture(t testing.TB) *testFixture { return shortFixture.get(t, 2, 8, 5, 24) }

// multiPtileFixture is video 8 at full length (201 segments) with 18 of 24
// users training, so most segments offer two Ptiles and sessions choose
// among them.
func multiPtileFixture(t testing.TB) *testFixture { return ptileFixture.get(t, 8, 24, 18, 0) }

// buildFixture generates users for a video (traces at seed 42, split at
// seed 7) and builds the catalogue from the training users; a positive
// durationSec shortens the video.
func buildFixture(videoID, users, train, durationSec int) (*testFixture, error) {
	p, err := video.ProfileByID(videoID)
	if err != nil {
		return nil, err
	}
	if durationSec > 0 {
		p.DurationSec = durationSec
	}
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = users
	ds, err := headtrace.Generate(p, gcfg, 42)
	if err != nil {
		return nil, err
	}
	trainUsers, eval, err := ds.SplitTrainEval(train, 7)
	if err != nil {
		return nil, err
	}
	ccfg, err := sim.DefaultCatalogConfig()
	if err != nil {
		return nil, err
	}
	cat, err := sim.BuildCatalog(p, trainUsers, ccfg)
	if err != nil {
		return nil, err
	}
	return &testFixture{profile: p, cat: cat, eval: eval}, nil
}

// netFor generates a bandwidth trace for one mobility profile and seed,
// long enough to cover any stalled session of the short fixture video.
func netFor(t testing.TB, prof lte.Profile, seed int64) *lte.Trace {
	t.Helper()
	cfg, err := lte.ProfileConfig(prof)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := lte.Generate(120, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// specsFor builds n sessions cycling the eval viewer pool with staggered
// join times (joins at distinct virtual times must not affect the
// session-local trajectory).
func specsFor(fx *testFixture, net *lte.Trace, n int) []SessionSpec {
	specs := make([]SessionSpec, n)
	for i := range specs {
		specs[i] = SessionSpec{
			User:    fx.eval[i%len(fx.eval)],
			Net:     net,
			JoinSec: 0.25 * float64(i%13),
		}
	}
	return specs
}

func simConfig(t testing.TB, scheme sim.Scheme) sim.Config {
	t.Helper()
	cfg, err := sim.DefaultConfig(scheme, power.Pixel3)
	if err != nil {
		t.Fatal(err)
	}
	// Record the full per-segment trace so the differential comparison pins
	// every segment's quality, throughput, stall, and energy — not just the
	// session aggregates.
	cfg.RecordSegments = true
	return cfg
}

// requireSameResult pins two session results bit-identical: DeepEqual over
// the full struct (including the per-segment trace) plus explicit
// Float64bits checks on the headline scalars so a float difference reports
// the exact bit pattern.
func requireSameResult(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil result (got=%v want=%v)", label, got, want)
	}
	pins := []struct {
		name      string
		got, want float64
	}{
		{"QoE.MeanQ", got.QoE.MeanQ, want.QoE.MeanQ},
		{"QoE.StallSec", got.QoE.StallSec, want.QoE.StallSec},
		{"Energy.Tx", got.Energy.Tx, want.Energy.Tx},
		{"Energy.Decode", got.Energy.Decode, want.Energy.Decode},
		{"Energy.Render", got.Energy.Render, want.Energy.Render},
		{"BitsDownloaded", got.BitsDownloaded, want.BitsDownloaded},
	}
	for _, p := range pins {
		if math.Float64bits(p.got) != math.Float64bits(p.want) {
			t.Fatalf("%s: %s differs: got %x (%g) want %x (%g)",
				label, p.name, math.Float64bits(p.got), p.got, math.Float64bits(p.want), p.want)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: results differ beyond pinned scalars:\ngot:  %+v\nwant: %+v", label, got, want)
	}
}

// TestFleetMatchesSim is the differential harness of this package: across
// seeds × scales × mobility (fault) profiles × schemes, every per-session
// trajectory produced by the event-driven engine must be bit-identical to
// the blocking-loop sim.Run under the same inputs.
func TestFleetMatchesSim(t *testing.T) {
	fx := fixture(t)
	cases := []struct {
		scheme   sim.Scheme
		sessions int
		shards   int
		profile  lte.Profile
		seed     int64
		// twoTraces replays the first half of the sessions on a second
		// trace (seed+1): session i+n/2 has session i's viewer and join
		// time. n/2 is a multiple of the shard count, so each such pair
		// steps in one shard's batches, sharing viewer and segment and
		// differing only in trace.
		twoTraces bool
	}{
		// The ≤1k headline case at full scale, plus smaller scales covering
		// the remaining seeds, mobility profiles, and controller families
		// (rate-based Ptile/Ctile and the MPC-driven Ours).
		{sim.SchemePtile, 1000, 8, lte.ProfileWalking, 11, false},
		{sim.SchemePtile, 250, 4, lte.ProfileStationary, 23, false},
		{sim.SchemePtile, 250, 3, lte.ProfileDriving, 37, false},
		{sim.SchemeCtile, 120, 5, lte.ProfileStationary, 37, false},
		{sim.SchemeOurs, 48, 4, lte.ProfileWalking, 11, false},
		{sim.SchemeOurs, 48, 2, lte.ProfileDriving, 23, false},
		{sim.SchemeOurs, 96, 2, lte.ProfileWalking, 29, true},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%v/%v/seed=%d/n=%d", tc.scheme, tc.profile, tc.seed, tc.sessions)
		if tc.twoTraces {
			name += "/two-traces"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			nets := []*lte.Trace{netFor(t, tc.profile, tc.seed)}
			cfg := simConfig(t, tc.scheme)
			specs := specsFor(fx, nets[0], tc.sessions)
			if tc.twoTraces {
				nets = append(nets, netFor(t, tc.profile, tc.seed+1))
				half := tc.sessions / 2
				for i := half; i < tc.sessions; i++ {
					specs[i] = specs[i-half]
					specs[i].Net = nets[1]
				}
			}
			eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: tc.shards}, specs)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}

			// One blocking-loop reference per distinct (viewer, trace) pair
			// (the pool is tiny, every session cycling it must match its
			// pair's run).
			type pair struct {
				user *headtrace.Trace
				net  *lte.Trace
			}
			refs := make(map[pair]*sim.Result)
			for _, net := range nets {
				for _, u := range fx.eval {
					ref, err := sim.Run(fx.cat, u, net, cfg)
					if err != nil {
						t.Fatal(err)
					}
					refs[pair{u, net}] = ref
				}
			}
			if len(nets) > 1 && reflect.DeepEqual(refs[pair{fx.eval[0], nets[0]}], refs[pair{fx.eval[0], nets[1]}]) {
				t.Fatal("the two traces give one viewer identical sessions")
			}
			results := eng.Results()
			for i, spec := range specs {
				requireSameResult(t, fmt.Sprintf("session %d", i), results[i], refs[pair{spec.User, spec.Net}])
			}

			led := eng.Ledger()
			if led.Joined != tc.sessions || led.Finished != tc.sessions || led.Active != 0 {
				t.Fatalf("ledger session counts off: %+v", led)
			}
			wantSegs, wantStalls := 0, 0
			wantStallSec := 0.0
			for _, spec := range specs {
				ref := refs[pair{spec.User, spec.Net}]
				wantSegs += ref.Segments
				wantStalls += ref.QoE.Stalls
				wantStallSec += ref.QoE.StallSec
			}
			if led.Segments != wantSegs {
				t.Fatalf("ledger counted %d segments, references streamed %d", led.Segments, wantSegs)
			}
			if led.Stalls != wantStalls {
				t.Fatalf("ledger counted %d stalls, references %d", led.Stalls, wantStalls)
			}
			if math.Abs(led.StallSec-wantStallSec) > 1e-9*(1+wantStallSec) {
				t.Fatalf("ledger stall time %g, references %g", led.StallSec, wantStallSec)
			}
		})
	}
}

// TestFleetDeterministicAcrossWorkers pins the whole engine output —
// per-session results and the ledger, floats included — identical between a
// serial advance (workers=1) and the full worker pool: shards are
// independent and the roll-up order is fixed, so worker scheduling must not
// leak into a single bit.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	fx := fixture(t)
	net := netFor(t, lte.ProfileWalking, 5)
	cfg := simConfig(t, sim.SchemePtile)
	run := func(workers int) (*Engine, Ledger) {
		t.Helper()
		eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: 8, Workers: workers}, specsFor(fx, net, 400))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng, eng.Ledger()
	}
	serial, serialLed := run(1)
	pooled, pooledLed := run(8)
	if !reflect.DeepEqual(serialLed, pooledLed) {
		t.Fatalf("ledger depends on worker count:\nworkers=1: %+v\nworkers=8: %+v", serialLed, pooledLed)
	}
	for i := range serial.Results() {
		requireSameResult(t, fmt.Sprintf("session %d", i), pooled.Results()[i], serial.Results()[i])
	}
}

// TestFleetShardCountInvariant: New deals whole cohorts to shards, so what a
// fleet computes and how much stepping it takes do not depend on the shard
// count. Two fleets run at 1 to 8 shards: the fixture's mixed fleet (39
// cohorts) and one of 6 cohorts with early leavers, which leaves shards
// empty at 7 and 8. At every count each cohort's members sit on one shard,
// the shards' cohort counts differ by at most one, every Result equals the
// 1-shard run's, BatchLeaders equals the cohort steps (per cohort, the
// segments its longest-staying member streamed), the integer ledger fields
// are identical and the float fields, which shards sum in another order,
// agree within a relative 1e-12.
func TestFleetShardCountInvariant(t *testing.T) {
	fx := fixture(t)
	net := netFor(t, lte.ProfileDriving, 9)
	cfg := simConfig(t, sim.SchemePtile)
	few := make([]SessionSpec, 60)
	for i := range few {
		few[i] = SessionSpec{User: fx.eval[i%len(fx.eval)], Net: net, JoinSec: 0.5 * float64(i%2)}
		if i%7 == 0 {
			few[i].LeaveAfterSegments = 3 + i%11
		}
	}
	cases := []struct {
		name    string
		specs   []SessionSpec
		cohorts int
	}{
		{"mixed", specsFor(fx, net, 200), 39},
		{"few-cohorts", few, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The fleets run on one trace, so a cohort is a (viewer, join).
			type key struct {
				user *headtrace.Trace
				join float64
			}
			var ref *Engine
			for shards := 1; shards <= 8; shards++ {
				eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: shards}, tc.specs)
				if err != nil {
					t.Fatal(err)
				}
				home := make(map[key]int) // the shard each cohort's members sit on
				dealt := make([]int, 0, shards)
				placed := 0
				for si, sh := range eng.shards {
					dealt = append(dealt, len(sh.cohorts))
					for _, c := range sh.cohorts {
						for _, i := range c.members {
							k := key{tc.specs[i].User, tc.specs[i].JoinSec}
							if h, ok := home[k]; ok && h != si {
								t.Fatalf("shards=%d: cohort %+v has members on shards %d and %d", shards, k, h, si)
							}
							home[k] = si
							placed++
						}
					}
				}
				if len(home) != tc.cohorts || placed != len(tc.specs) {
					t.Fatalf("shards=%d: %d sessions placed in %d cohorts, want %d in %d", shards, placed, len(home), len(tc.specs), tc.cohorts)
				}
				if slices.Max(dealt)-slices.Min(dealt) > 1 {
					t.Fatalf("shards=%d: cohorts dealt %v, want counts within one of each other", shards, dealt)
				}
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				steps := make(map[key]int)
				for i, res := range eng.Results() {
					if ref != nil {
						requireSameResult(t, fmt.Sprintf("shards=%d session %d", shards, i), res, ref.Results()[i])
					}
					k := key{tc.specs[i].User, tc.specs[i].JoinSec}
					steps[k] = max(steps[k], res.Segments)
				}
				led, cohortSteps := eng.Ledger(), 0
				for _, n := range steps {
					cohortSteps += n
				}
				if led.BatchLeaders != cohortSteps {
					t.Fatalf("shards=%d: %d leader steps for %d cohort steps", shards, led.BatchLeaders, cohortSteps)
				}
				if ref == nil {
					ref = eng
					continue
				}
				want := ref.Ledger()
				for _, f := range []struct {
					name      string
					got, want *float64
				}{
					{"StallSec", &led.StallSec, &want.StallSec},
					{"EnergyMJ", &led.EnergyMJ, &want.EnergyMJ},
					{"QoESum", &led.QoESum, &want.QoESum},
					{"Bits", &led.Bits, &want.Bits},
				} {
					if math.Abs(*f.got-*f.want) > 1e-12*math.Abs(*f.want) {
						t.Fatalf("shards=%d: ledger %s %v, 1 shard %v", shards, f.name, *f.got, *f.want)
					}
					*f.got, *f.want = 0, 0
				}
				if led != want {
					t.Fatalf("integer ledger depends on shard count:\nshards=1: %+v\nshards=%d: %+v", want, shards, led)
				}
			}
		})
	}
}

// TestFleetTruncatedSessions checks early leave: a session that leaves after
// k segments must have streamed exactly the first k segments of its full
// blocking-loop trajectory, bit for bit.
func TestFleetTruncatedSessions(t *testing.T) {
	fx := fixture(t)
	net := netFor(t, lte.ProfileWalking, 3)
	cfg := simConfig(t, sim.SchemePtile)
	const k = 7
	specs := specsFor(fx, net, 30)
	for i := range specs {
		specs[i].LeaveAfterSegments = k
	}
	eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: 3}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	refs := make(map[*headtrace.Trace]*sim.Result)
	for _, u := range fx.eval {
		ref, err := sim.Run(fx.cat, u, net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refs[u] = ref
	}
	for i, spec := range specs {
		got := eng.Results()[i]
		if got == nil {
			t.Fatalf("session %d has no result", i)
		}
		if got.Segments != k {
			t.Fatalf("session %d streamed %d segments, want %d", i, got.Segments, k)
		}
		if !reflect.DeepEqual(got.PerSegment, refs[spec.User].PerSegment[:k]) {
			t.Fatalf("session %d: truncated trajectory is not a prefix of the full run", i)
		}
	}
}

// TestFleetGoroutinesOShards is the goroutine-count regression: advancing a
// fleet must cost O(shards) goroutines, never O(sessions). A
// goroutine-per-session engine would trip this by four orders of magnitude.
func TestFleetGoroutinesOShards(t *testing.T) {
	fx := fixture(t)
	net := netFor(t, lte.ProfileStationary, 1)
	cfg := simConfig(t, sim.SchemePtile)
	cfg.RecordSegments = false
	const sessions, shards, workers = 20000, 8, 4
	specs := specsFor(fx, net, sessions)
	for i := range specs {
		specs[i].LeaveAfterSegments = 1
	}
	eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: shards, Workers: workers}, specs)
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	var peak atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// base + the sampler + at most `workers` shard goroutines + slack for
	// runtime helpers.
	limit := int64(base + 1 + workers + 16)
	if got := peak.Load(); got > limit {
		t.Fatalf("fleet advance used %d goroutines for %d sessions (limit %d): scheduling is not O(shards)",
			got, sessions, limit)
	}
	if led := eng.Ledger(); led.Finished != sessions {
		t.Fatalf("finished %d of %d sessions", led.Finished, sessions)
	}
}

// TestFleetMetricsMatchLedger checks the published obs counters equal the
// ledger exactly after a run (publish writes deltas, so the final scrape is
// the final ledger).
func TestFleetMetricsMatchLedger(t *testing.T) {
	fx := fixture(t)
	net := netFor(t, lte.ProfileWalking, 13)
	cfg := simConfig(t, sim.SchemePtile)
	cfg.RecordSegments = false
	eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: 4}, specsFor(fx, net, 60))
	if err != nil {
		t.Fatal(err)
	}
	// Advance in small horizons so publish runs repeatedly mid-flight.
	for until := 2.0; ; until += 2 {
		if err := eng.Advance(until); err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.NextEventTime(); !ok {
			break
		}
	}
	led := eng.Ledger()
	if led.Finished != 60 {
		t.Fatalf("fleet did not drain: %+v", led)
	}
	if got := eng.met.segments.Value(); got != float64(led.Segments) {
		t.Fatalf("segments counter %g != ledger %d", got, led.Segments)
	}
	if got := eng.met.stallSec.Value(); math.Abs(got-led.StallSec) > 1e-9 {
		t.Fatalf("stall counter %g != ledger %g", got, led.StallSec)
	}
	if got := eng.met.active.Value(); got != 0 {
		t.Fatalf("active gauge %g after drain", got)
	}
	if got := eng.met.joined.Value(); got != float64(led.Joined) {
		t.Fatalf("joined counter %g != ledger %d", got, led.Joined)
	}
	if got := eng.met.finished.Value(); got != float64(led.Finished) {
		t.Fatalf("finished counter %g != ledger %d", got, led.Finished)
	}
}

// TestFleetGoldenLedger pins the whole ledger of one fleet run with early
// leavers: integers exactly, floats on Float64bits. Every seventh session
// leaves after 3–13 segments, and the ledger's float sums depend on the
// order in which completions book stalls and leaves settle. The floats were
// pinned on an engine that booked each stall and each leave as a heap event
// of its own; matching them shows that booking both at the completion
// changes no sum.
func TestFleetGoldenLedger(t *testing.T) {
	fx := fixture(t)
	cfg := simConfig(t, sim.SchemeCtile)
	cfg.RecordSegments = false
	specs := specsFor(fx, netFor(t, lte.ProfileWalking, 7), 500)
	for i := range specs {
		if i%7 == 0 {
			specs[i].LeaveAfterSegments = 3 + i%11
		}
	}
	eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: 1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for until := 5.0; ; until += 5 {
		if _, ok := eng.NextEventTime(); !ok {
			break
		}
		if err := eng.Advance(until); err != nil {
			t.Fatal(err)
		}
	}
	got := eng.Ledger()
	floats := []struct {
		name string
		got  float64
		want uint64
	}{
		{"StallSec", got.StallSec, 0x40644f852ef95168}, // 162.48500775046273
		{"EnergyMJ", got.EnergyMJ, 0x417b2e0c00787441}, // 2.8500160029407743e+07
		{"QoESum", got.QoESum, 0x40ce4a2bab32cda0},     // 15508.341162062075
		{"Bits", got.Bits, 0x42251efa788714da},         // 4.5357022275540726e+10
	}
	for _, f := range floats {
		if bits := math.Float64bits(f.got); bits != f.want {
			t.Errorf("%s = %v (%#x), pinned %v (%#x)", f.name, f.got, bits, math.Float64frombits(f.want), f.want)
		}
	}
	got.StallSec, got.EnergyMJ, got.QoESum, got.Bits = 0, 0, 0, 0
	want := Ledger{
		Joined: 500, Finished: 500, Segments: 10846, Stalls: 1323, Emergencies: 500,
		Events: 11846, BatchLeaders: 936, BatchReplays: 9910,
	}
	if got != want {
		t.Errorf("integer ledger:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestFleetTiedCohortsBookingOrder pins the order in which cohorts that
// complete at the same virtual time book the ledger's floats. Ctile's sizes
// depend only on the FoV block's tile count, so the fixture's viewers
// joining at one time complete together at every segment; with
// StrictViewportQoE they still settle with different mean QoE, so QoESum
// depends on which of the tied cohorts books first. Cohorts are numbered in
// the order of their first members, joins at one time run in that order,
// and the heap pops tied completions in push order, so the tied cohorts
// book in first-member order at every tie.
func TestFleetTiedCohortsBookingOrder(t *testing.T) {
	fx := fixture(t)
	cfg := simConfig(t, sim.SchemeCtile)
	cfg.RecordSegments = false
	cfg.StrictViewportQoE = true
	net := netFor(t, lte.ProfileWalking, 7)
	var specs []SessionSpec
	for _, leave := range []int{0, 7, 13} {
		for _, join := range []float64{0, 0.5} {
			for _, u := range fx.eval {
				specs = append(specs, SessionSpec{User: u, Net: net, JoinSec: join, LeaveAfterSegments: leave})
			}
		}
	}
	eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: 1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Count the Advance boundaries at which every viewer's cohort of one
	// join time has its completion pending at one time.
	tied := 0
	for until := 0.0; ; until += 0.25 {
		if _, ok := eng.NextEventTime(); !ok {
			break
		}
		if err := eng.Advance(until); err != nil {
			t.Fatal(err)
		}
		pending := make(map[float64]int)
		for _, ev := range eng.shards[0].heap.events {
			if pending[ev.Time]++; pending[ev.Time] == len(fx.eval) {
				tied++
			}
		}
	}
	res := eng.Results()
	if tied == 0 || res[0].QoE.MeanQ == res[1].QoE.MeanQ {
		t.Fatalf("the viewers' cohorts must tie (%d boundaries) and settle with different mean QoE (%v, %v)",
			tied, res[0].QoE.MeanQ, res[1].QoE.MeanQ)
	}
	led := eng.Ledger()
	for _, f := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"StallSec", led.StallSec, 0x4011caeee2cc7dc2}, // 4.448176902514605
		{"EnergyMJ", led.EnergyMJ, 0x412502af2c1cb4d5}, // 688471.5861565123
		{"QoESum", led.QoESum, 0x4077551a69634b67},     // 373.3189481619542
		{"Bits", led.Bits, 0x41d0d4069aab116f},         // 1.129323114672939e+09
	} {
		if bits := math.Float64bits(f.got); bits != f.want {
			t.Errorf("%s = %v (%#x), pinned %v (%#x)", f.name, f.got, bits, math.Float64frombits(f.want), f.want)
		}
	}
}

// requireCohortHeap checks a shard's scheduling state at an Advance
// boundary: its heap holds exactly one event per live cohort (one that has
// joined and still has members) and none for any other, within the capacity
// New reserved, one slot per cohort; and every cohort lists its remaining
// members in session order with the smallest leave count among them.
func requireCohortHeap(t *testing.T, at float64, si int, sh *shard) {
	t.Helper()
	if c := cap(sh.heap.events); c != len(sh.cohorts) {
		t.Fatalf("t=%g: shard %d heap capacity %d, New reserved one slot for each of %d cohorts", at, si, c, len(sh.cohorts))
	}
	pending := make([]int, len(sh.cohorts))
	for _, ev := range sh.heap.events {
		pending[ev.Session]++
	}
	joined := make([]bool, len(sh.cohorts))
	for _, j := range sh.joins[:sh.joinPos] {
		joined[j.cohort] = true
	}
	for id, c := range sh.cohorts {
		live := joined[id] && len(c.members) > 0
		want := 0
		if live {
			want = 1
		}
		if pending[id] != want || (c.state != nil) != live {
			t.Fatalf("t=%g: shard %d cohort %d (joined %v, %d members, state %v) has %d heap events, want %d",
				at, si, id, joined[id], len(c.members), c.state != nil, pending[id], want)
		}
		var minLeave int32
		for k, i := range c.members {
			if k > 0 && i <= c.members[k-1] {
				t.Fatalf("t=%g: shard %d cohort %d members %v out of session order", at, si, id, c.members)
			}
			if l := sh.eng.leave[i]; l != 0 && (minLeave == 0 || l < minLeave) {
				minLeave = l
			}
		}
		if c.minLeave != minLeave {
			t.Fatalf("t=%g: shard %d cohort %d holds smallest leave count %d, its members' is %d", at, si, id, c.minLeave, minLeave)
		}
	}
}

// TestFleetHeapHoldsOneEventPerCohort pins the engine's event budget: a
// live cohort holds exactly one heap event, its members' next segment
// completion, so at every Advance boundary a shard's heap holds one event
// per live cohort and never outgrows the slot per cohort that New reserves,
// stalls and early leaves included. The 500 sessions form 39 cohorts.
func TestFleetHeapHoldsOneEventPerCohort(t *testing.T) {
	fx := fixture(t)
	cfg := simConfig(t, sim.SchemePtile)
	cfg.RecordSegments = false
	const sessions = 500
	for _, prof := range []lte.Profile{lte.ProfileWalking, lte.ProfileDriving} {
		t.Run(prof.String(), func(t *testing.T) {
			specs := specsFor(fx, netFor(t, prof, 7), sessions)
			for i := range specs {
				if i%7 == 0 {
					specs[i].LeaveAfterSegments = 3 + i%11
				}
			}
			eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: 1}, specs)
			if err != nil {
				t.Fatal(err)
			}
			sh := eng.shards[0]
			if len(sh.cohorts) != 39 {
				t.Fatalf("%d sessions formed %d cohorts, want 3 viewers × 13 join times", sessions, len(sh.cohorts))
			}
			peak := 0
			for until := 1.0; ; until++ {
				if _, ok := eng.NextEventTime(); !ok {
					break
				}
				if err := eng.Advance(until); err != nil {
					t.Fatal(err)
				}
				requireCohortHeap(t, until, 0, sh)
				peak = max(peak, len(sh.heap.events))
			}
			if led := eng.Ledger(); led.Finished != sessions || led.Stalls == 0 {
				t.Fatalf("fleet must drain and stall: %+v", led)
			}
			if peak != len(sh.cohorts) {
				t.Fatalf("the heap held at most %d events, want all %d cohorts' at once", peak, len(sh.cohorts))
			}
		})
	}
}

// TestFleetHeapOneEventForIdenticalSessions pins the best case:
// decision-identical sessions (one viewer, one trace, one join time) form
// one cohort, so the shard's heap holds a single event for all of them
// while they stream. When every member leaves early, at counts 1 to 9, the
// cohort releases its state and its event with its last member: it steps
// at its join and at eight completions, and never again.
func TestFleetHeapOneEventForIdenticalSessions(t *testing.T) {
	fx := fixture(t)
	cfg := simConfig(t, sim.SchemeOurs)
	cfg.RecordSegments = false
	const sessions = 300
	net := netFor(t, lte.ProfileDriving, 7)
	cases := []struct {
		name  string
		leave func(i int) int
		steps int // cohort steps: one at the join, one per completion but the last
	}{
		{"whole-video", func(int) int { return 0 }, len(fx.cat.Content)},
		{"early-leavers", func(i int) int { return 1 + i%9 }, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs := make([]SessionSpec, sessions)
			for i := range specs {
				specs[i] = SessionSpec{User: fx.eval[0], Net: net, LeaveAfterSegments: tc.leave(i)}
			}
			eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: 1}, specs)
			if err != nil {
				t.Fatal(err)
			}
			sh := eng.shards[0]
			boundaries := 0
			for until := 0.0; ; until += 0.5 {
				if _, ok := eng.NextEventTime(); !ok {
					break
				}
				if err := eng.Advance(until); err != nil {
					t.Fatal(err)
				}
				requireCohortHeap(t, until, 0, sh)
				led := eng.Ledger()
				if led.Active > 0 {
					boundaries++
				}
				if want := min(led.Active, 1); len(sh.heap.events) != want {
					t.Fatalf("t=%g: heap holds %d events for %d identical sessions, want %d", until, len(sh.heap.events), led.Active, want)
				}
			}
			led := eng.Ledger()
			if led.Finished != sessions || boundaries < 3 {
				t.Fatalf("fleet must drain after streaming a while: %d boundaries, %+v", boundaries, led)
			}
			if led.BatchLeaders != tc.steps {
				t.Fatalf("the cohort stepped %d times, want %d", led.BatchLeaders, tc.steps)
			}
		})
	}
}

// TestFleetHeapEventCount bounds the events a shard's heap holds on the
// fixture's mixed fleet: three viewers joining at thirteen offsets form 39
// cohorts, dealt whole over two shards, 20 to shard 0 and 19 to shard 1.
// Each shard holds one event per live cohort, so never more than its
// cohorts, and all of them at once after the join wave, whatever the trace
// does to the members' timing.
func TestFleetHeapEventCount(t *testing.T) {
	fx := fixture(t)
	cfg := simConfig(t, sim.SchemeOurs)
	cfg.RecordSegments = false
	const sessions, shards = 2000, 2
	dealt := []int{20, 19}
	for _, prof := range []lte.Profile{lte.ProfileWalking, lte.ProfileDriving} {
		t.Run(prof.String(), func(t *testing.T) {
			eng, err := New(Config{Catalog: fx.cat, Sim: cfg, Shards: shards},
				specsFor(fx, netFor(t, prof, 7), sessions))
			if err != nil {
				t.Fatal(err)
			}
			peak := make([]int, shards)
			for until := 0.0; ; until += 0.5 {
				if _, ok := eng.NextEventTime(); !ok {
					break
				}
				if err := eng.Advance(until); err != nil {
					t.Fatal(err)
				}
				for si, sh := range eng.shards {
					if len(sh.cohorts) != dealt[si] {
						t.Fatalf("shard %d has %d cohorts, want %d", si, len(sh.cohorts), dealt[si])
					}
					requireCohortHeap(t, until, si, sh)
					peak[si] = max(peak[si], len(sh.heap.events))
				}
			}
			if !slices.Equal(peak, dealt) {
				t.Fatalf("the shards held at most %v events, want all %v of their cohorts' at once", peak, dealt)
			}
		})
	}
}
