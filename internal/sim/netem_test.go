package sim

import (
	"reflect"
	"sync"
	"testing"

	"ptile360/internal/headtrace"
	"ptile360/internal/netem"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/video"
)

// netemFixture builds a small catalogue and eval users once per test run.
var netemFixture struct {
	once sync.Once
	cat  *Catalog
	eval []*headtrace.Trace
	err  error
}

func netemSetup(t *testing.T) (*Catalog, []*headtrace.Trace) {
	t.Helper()
	netemFixture.once.Do(func() {
		p, err := video.ProfileByID(3)
		if err != nil {
			netemFixture.err = err
			return
		}
		gcfg := headtrace.DefaultGeneratorConfig()
		gcfg.NumUsers = 12
		ds, err := headtrace.Generate(p, gcfg, 99)
		if err != nil {
			netemFixture.err = err
			return
		}
		train, eval, err := ds.SplitTrainEval(9, 5)
		if err != nil {
			netemFixture.err = err
			return
		}
		ccfg, err := DefaultCatalogConfig()
		if err != nil {
			netemFixture.err = err
			return
		}
		cat, err := BuildCatalog(p, train, ccfg)
		if err != nil {
			netemFixture.err = err
			return
		}
		netemFixture.cat, netemFixture.eval = cat, eval
	})
	if netemFixture.err != nil {
		t.Fatal(netemFixture.err)
	}
	return netemFixture.cat, netemFixture.eval
}

func netemPath(t *testing.T, profile string, seed int64) *netem.SessionNet {
	t.Helper()
	p, err := netem.ParseProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := netem.NewSessionNet(netem.SessionConfig{Profile: p, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return pn
}

// TestRunNetemDeterministicReplay pins the tentpole acceptance criterion:
// identical (seed, profile) reproduce bit-identical session outcomes across
// repeated runs and across concurrent workers. Every field of the Result —
// QoE terms, energy split, per-segment traces — must match exactly.
func TestRunNetemDeterministicReplay(t *testing.T) {
	cat, eval := netemSetup(t)
	profiles := []string{"bufferbloat", "suddendrop,capacity=40", "crossflow,loss=0.005"}
	estimators := []predict.EstimatorKind{predict.EstimatorHarmonic, predict.EstimatorDelayGradient}

	type job struct {
		profile string
		kind    predict.EstimatorKind
		user    int
	}
	var jobs []job
	for _, pr := range profiles {
		for _, kind := range estimators {
			for u := 0; u < 3; u++ {
				jobs = append(jobs, job{profile: pr, kind: kind, user: u})
			}
		}
	}

	run := func(j job) (*Result, error) {
		cfg, err := DefaultConfig(SchemeOurs, power.Pixel3)
		if err != nil {
			return nil, err
		}
		cfg.Estimator = j.kind
		cfg.RecordSegments = true
		pn := netemPath(t, j.profile, 1000+int64(j.user))
		return RunNetem(cat, eval[j.user], pn, cfg)
	}

	// Serial reference.
	want := make([]*Result, len(jobs))
	for i, j := range jobs {
		r, err := run(j)
		if err != nil {
			t.Fatalf("serial %+v: %v", j, err)
		}
		want[i] = r
	}

	// Repeat serially, then with 8 concurrent workers; both must match the
	// reference bit for bit.
	for pass, workers := range []int{1, 8} {
		got := make([]*Result, len(jobs))
		errs := make([]error, len(jobs))
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func(i int, j job) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				got[i], errs[i] = run(j)
			}(i, j)
		}
		wg.Wait()
		for i, j := range jobs {
			if errs[i] != nil {
				t.Fatalf("pass %d %+v: %v", pass, j, errs[i])
			}
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("pass %d (workers=%d) %+v: session outcome diverged\nwant %+v\ngot  %+v",
					pass, workers, j, want[i].QoE, got[i].QoE)
			}
		}
	}
}

// TestRunNetemDelayGradientGetsPacketFeed checks the estimator actually
// receives packet timing on the netem path: under bufferbloat the
// delay-gradient session must make different decisions than harmonic mean
// (if the feed were dead, both would behave identically on this noiseless
// link).
func TestRunNetemDelayGradientGetsPacketFeed(t *testing.T) {
	cat, eval := netemSetup(t)
	run := func(kind predict.EstimatorKind) *Result {
		cfg, err := DefaultConfig(SchemeOurs, power.Pixel3)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Estimator = kind
		pn := netemPath(t, "bufferbloat", 7)
		r, err := RunNetem(cat, eval[0], pn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	h := run(predict.EstimatorHarmonic)
	dg := run(predict.EstimatorDelayGradient)
	if reflect.DeepEqual(h, dg) {
		t.Fatal("delay-gradient session identical to harmonic: packet feed is dead")
	}
}

// TestRunNetemIdealMatchesUnlimitedTrace sanity-checks the ideal profile:
// downloads complete (effectively) instantly, so the session never stalls
// after startup.
func TestRunNetemIdealMatchesUnlimitedTrace(t *testing.T) {
	cat, eval := netemSetup(t)
	cfg, err := DefaultConfig(SchemeOurs, power.Pixel3)
	if err != nil {
		t.Fatal(err)
	}
	pn := netemPath(t, "ideal", 1)
	r, err := RunNetem(cat, eval[1], pn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.QoE.StallSec > 0 {
		t.Fatalf("ideal link stalled %g s", r.QoE.StallSec)
	}
	if r.Segments != len(cat.Content) {
		t.Fatalf("streamed %d/%d segments", r.Segments, len(cat.Content))
	}
}

// stateSnapshot is what a failed Step must leave as it was: the clocks,
// buffer, segment position, segment count and bandwidth estimate.
type stateSnapshot struct {
	wall, buffer, estimate float64
	segment, segments      int
}

func snapshotOf(state *State) stateSnapshot {
	return stateSnapshot{state.WallSec(), state.BufferSec(), state.EstimateBps(), state.Segment(), state.Segments()}
}

// TestFailedStepLeavesState pins Step's failure contract: a step that
// returns an error leaves the session where it was. The link runs at
// 40 Mbps for 10 s, then cross traffic claims the whole capacity, so a
// download eventually exhausts its retransmission budget ("link dead")
// after the session has built up a buffer the wait rule would drain.
func TestFailedStepLeavesState(t *testing.T) {
	cat, eval := netemSetup(t)
	cfg, err := DefaultConfig(SchemeOurs, power.Pixel3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	link := netem.Params{CapacityBps: netem.Mbps(40), RTTSec: 0.04, QueueBytes: 256 << 10}
	dead := link
	dead.CrossBps = dead.CapacityBps
	pn, err := netem.NewSessionNet(netem.SessionConfig{
		Profile: &netem.Profile{Name: "dies-at-10s", Phases: []netem.Phase{
			{StartSec: 0, Params: link},
			{StartSec: 10, Params: dead},
		}},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	state, err := st.NewStateNetem(eval[0], pn)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; ; step++ {
		if step == st.Segments() {
			t.Fatal("every step succeeded; the link never died")
		}
		before := snapshotOf(state)
		if _, err := st.Step(state); err != nil {
			if after := snapshotOf(state); after != before {
				t.Fatalf("step %d failed (%v) but moved the state\nbefore: %+v\nafter:  %+v", step, err, before, after)
			}
			t.Logf("step %d failed as intended: %v", step, err)
			return
		}
	}
}
