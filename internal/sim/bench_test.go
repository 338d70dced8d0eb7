package sim

import (
	"testing"

	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/power"
)

// BenchmarkStepperStep times one scalar Ours step on a warm stepper: the
// viewport prediction, the segment plan and its four look-ahead plans, the
// MPC DP, the download and the accounting. Sessions cycle through the
// fixture's eval viewers; a finished one is re-initialized in place.
func BenchmarkStepperStep(b *testing.B) {
	fx := fixture(b)
	cfg, err := DefaultConfig(SchemeOurs, power.Pixel3)
	if err != nil {
		b.Fatal(err)
	}
	st, err := NewStepper(fx.cat, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var state State
	user := 0
	restart := func() {
		if err := st.InitState(&state, fx.eval[user%len(fx.eval)], fx.trace); err != nil {
			b.Fatal(err)
		}
		user++
	}
	// Warm up: one whole session grows every recycled planning buffer.
	restart()
	for {
		info, err := st.Step(&state)
		if err != nil {
			b.Fatal(err)
		}
		if info.Done {
			break
		}
	}
	restart()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := st.Step(&state)
		if err != nil {
			b.Fatal(err)
		}
		if info.Done {
			restart()
		}
	}
}

// BenchmarkStepBatch times one StepBatch call over a batch of stepBatchN
// sessions at the same segment; ns/step divides it per session. leader:
// every session has its own (viewer, bandwidth trace) pair, so each computes
// and applies its own step. follower: replicas of one state, so one session
// computes and every other one only applies the leader's delta.
func BenchmarkStepBatch(b *testing.B) {
	fx := fixture(b)
	cfg, err := DefaultConfig(SchemeOurs, power.Pixel3)
	if err != nil {
		b.Fatal(err)
	}
	traces := make([]*lte.Trace, stepBatchN/len(fx.eval))
	for i := range traces {
		// Scale returns a copy, so every trace is a distinct group key.
		if traces[i], err = fx.trace.Scale(1); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		bind func(i int) (*headtrace.Trace, *lte.Trace)
	}{
		{"leader", func(i int) (*headtrace.Trace, *lte.Trace) {
			return fx.eval[i%len(fx.eval)], traces[i/len(fx.eval)]
		}},
		{"follower", func(int) (*headtrace.Trace, *lte.Trace) { return fx.eval[0], fx.trace }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := NewStepper(fx.cat, cfg)
			if err != nil {
				b.Fatal(err)
			}
			states := make([]State, stepBatchN)
			batch := make([]*State, stepBatchN)
			infos := make([]StepInfo, stepBatchN)
			restart := func() {
				for i := range states {
					user, net := bc.bind(i)
					if err := st.InitState(&states[i], user, net); err != nil {
						b.Fatal(err)
					}
					batch[i] = &states[i]
				}
			}
			// Every session of the batch is at the same segment, so all
			// finish together. A warm-up session grows the recycled buffers.
			stepAll := func() {
				if _, err := st.StepBatch(batch, infos); err != nil {
					b.Fatal(err)
				}
				if infos[0].Done {
					restart()
				}
			}
			restart()
			for seg := 0; seg < st.Segments(); seg++ {
				stepAll()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stepAll()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stepBatchN), "ns/step")
		})
	}
}

// stepBatchN is BenchmarkStepBatch's batch size.
const stepBatchN = 64
