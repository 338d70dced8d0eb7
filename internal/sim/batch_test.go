package sim

import (
	"reflect"
	"testing"

	"ptile360/internal/power"
)

// newBatchDiffStates builds a mixed fleet of session states over the shared
// fixture: three replicas of each eval viewer (replicas are the lockstep
// groups the batch planner should collapse) with the replicas staggered to
// different segment offsets so the batch always holds heterogeneous
// progress.
func newBatchDiffStates(t *testing.T, st *Stepper) []*State {
	t.Helper()
	fx := fixture(t)
	var states []*State
	for _, user := range fx.eval[:4] {
		for rep := 0; rep < 3; rep++ {
			state, err := st.NewState(user, fx.trace)
			if err != nil {
				t.Fatal(err)
			}
			// Stagger replica 2 by one pre-step so the batch mixes segment
			// indices; replicas 0 and 1 stay lockstep from segment 0.
			if rep == 2 {
				if _, err := st.Step(state); err != nil {
					t.Fatal(err)
				}
			}
			states = append(states, state)
		}
	}
	return states
}

func batchDiffConfig(t *testing.T, scheme Scheme, qoeMPC bool) Config {
	t.Helper()
	cfg, err := DefaultConfig(scheme, power.Pixel3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.UseQoEMPC = qoeMPC
	cfg.RecordSegments = true
	return cfg
}

// TestStepBatchMatchesStep pins the batched planner bit-identical to the
// scalar path: for every scheme (both Ours controllers), every StepInfo and
// every settled Result must match exactly — floats compared by bits,
// per-segment traces by deep equality.
func TestStepBatchMatchesStep(t *testing.T) {
	fx := fixture(t)
	cases := []struct {
		name   string
		scheme Scheme
		qoeMPC bool
	}{
		{"ptile", SchemePtile, false},
		{"ctile", SchemeCtile, false},
		{"ours-energy", SchemeOurs, false},
		{"ours-qoe", SchemeOurs, true},
	}
	for _, tc := range cases {
		// Groups rendezvous on a hash of the full signature words: the
		// unquantized grouping this subtest's label has always named.
		t.Run(tc.name+"/quant=false", func(t *testing.T) {
			cfg := batchDiffConfig(t, tc.scheme, tc.qoeMPC)
			batched, err := NewStepper(fx.cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := NewStepper(fx.cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bStates := newBatchDiffStates(t, batched)
			sStates := newBatchDiffStates(t, scalar)

			sc := NewBatchScratch()
			var total BatchStats
			bInfos := make([]StepInfo, len(bStates))
			for tick := 0; ; tick++ {
				var live []*State
				var ref []*State
				for i, s := range bStates {
					if s.Segment() < batched.Segments() {
						live = append(live, s)
						ref = append(ref, sStates[i])
					}
				}
				if len(live) == 0 {
					break
				}
				stats, err := batched.StepBatch(sc, live, bInfos[:len(live)])
				if err != nil {
					t.Fatalf("tick %d: StepBatch: %v", tick, err)
				}
				total.Leaders += stats.Leaders
				total.Replays += stats.Replays
				total.Fallbacks += stats.Fallbacks
				for i, rs := range ref {
					want, err := scalar.Step(rs)
					if err != nil {
						t.Fatalf("tick %d: scalar Step: %v", tick, err)
					}
					if bInfos[i] != want {
						t.Fatalf("tick %d session %d: StepInfo diverged\nbatch:  %+v\nscalar: %+v",
							tick, i, bInfos[i], want)
					}
				}
			}
			if total.Replays == 0 {
				t.Fatalf("batch never shared work: %+v", total)
			}
			if total.Fallbacks != 0 {
				t.Fatalf("unexpected scalar fallbacks: %+v", total)
			}
			for i := range bStates {
				br, err := batched.Finish(bStates[i])
				if err != nil {
					t.Fatal(err)
				}
				sr, err := scalar.Finish(sStates[i])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(br, sr) {
					t.Fatalf("session %d: batched Result != scalar Result\nbatch:  %+v\nscalar: %+v", i, br, sr)
				}
				requireSessionInvariants(t, cfg, br)
			}
		})
	}
}

// TestStepBatchFallback forces the no-fingerprint fallback and checks the
// batch still advances every session bit-identically through scalar steps.
func TestStepBatchFallback(t *testing.T) {
	fx := fixture(t)
	cfg := batchDiffConfig(t, SchemeOurs, false)
	batched, err := NewStepper(fx.cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := NewStepper(fx.cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bStates := newBatchDiffStates(t, batched)
	sStates := newBatchDiffStates(t, scalar)

	batchFingerprintDisabled = true
	defer func() { batchFingerprintDisabled = false }()

	sc := NewBatchScratch()
	infos := make([]StepInfo, len(bStates))
	stats, err := batched.StepBatch(sc, bStates, infos)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fallbacks != len(bStates) || stats.Leaders != 0 || stats.Replays != 0 {
		t.Fatalf("want all-fallback stats, got %+v", stats)
	}
	for i, rs := range sStates {
		want, err := scalar.Step(rs)
		if err != nil {
			t.Fatal(err)
		}
		if infos[i] != want {
			t.Fatalf("session %d: fallback StepInfo diverged: %+v vs %+v", i, infos[i], want)
		}
	}
}

// TestStepBatchValidation covers the argument contract.
func TestStepBatchValidation(t *testing.T) {
	fx := fixture(t)
	cfg := batchDiffConfig(t, SchemePtile, false)
	st, err := NewStepper(fx.cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	state, err := st.NewState(fx.eval[0], fx.trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.StepBatch(NewBatchScratch(), []*State{state}, nil); err == nil {
		t.Fatal("want error for mismatched infos length")
	}
	if _, err := st.StepBatch(nil, []*State{state}, make([]StepInfo, 1)); err == nil {
		t.Fatal("want error for nil scratch")
	}
}
