package sim

import (
	"reflect"
	"testing"

	"ptile360/internal/power"
)

// newBatchDiffStates builds a mixed fleet of session states over the shared
// fixture: four replicas of each eval viewer. Replicas 0 and 1 are the
// lockstep groups the batch planner should collapse. Replica 2 is staggered
// one segment ahead, so the batch always holds heterogeneous progress, and
// replica 3 streams over the fixture's other trace, so every part of the
// (viewer, trace, segment) group key separates some pair of sessions that
// share the other two.
func newBatchDiffStates(t *testing.T, st *Stepper) []*State {
	t.Helper()
	fx := fixture(t)
	var states []*State
	for _, user := range fx.eval[:4] {
		for rep := 0; rep < 4; rep++ {
			net := fx.trace
			if rep == 3 {
				net = fx.other
			}
			state, err := st.NewState(user, net)
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
		t.Run(tc.name, func(t *testing.T) {
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
				stats, err := batched.StepBatch(live, bInfos[:len(live)])
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

// TestStepBatchFallback mixes sessions on netem paths, which step scalar,
// into a batch of trace sessions: every session, fallback or grouped, must
// advance bit-identically to a scalar Step, and the fallbacks must neither
// join nor split the trace groups.
func TestStepBatchFallback(t *testing.T) {
	fx := fixture(t)
	cfg := batchDiffConfig(t, SchemeOurs, false)
	newStates := func(st *Stepper) []*State {
		var states []*State
		for i, state := range newBatchDiffStates(t, st) {
			states = append(states, state)
			if i%4 != 0 {
				continue
			}
			// One netem session per viewer, right after its first replica.
			ns, err := st.NewStateNetem(fx.eval[i/4], netemPath(t, "stable", int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, ns)
		}
		return states
	}
	batched, err := NewStepper(fx.cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := NewStepper(fx.cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bStates := newStates(batched)
	sStates := newStates(scalar)

	// Per viewer: replicas 0 and 1 share a group, replicas 2 and 3 lead
	// their own, and the netem session falls back.
	want := BatchStats{Leaders: 12, Replays: 4, Fallbacks: 4}
	infos := make([]StepInfo, len(bStates))
	for tick := 0; tick < 4; tick++ {
		stats, err := batched.StepBatch(bStates, infos)
		if err != nil {
			t.Fatalf("tick %d: StepBatch: %v", tick, err)
		}
		if stats != want {
			t.Fatalf("tick %d: stats %+v, want %+v", tick, stats, want)
		}
		for i, rs := range sStates {
			ref, err := scalar.Step(rs)
			if err != nil {
				t.Fatalf("tick %d: scalar Step: %v", tick, err)
			}
			if infos[i] != ref {
				t.Fatalf("tick %d session %d: StepInfo diverged\nbatch:  %+v\nscalar: %+v", tick, i, infos[i], ref)
			}
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
	if _, err := st.StepBatch([]*State{state}, nil); err == nil {
		t.Fatal("want error for mismatched infos length")
	}
}
