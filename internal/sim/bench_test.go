package sim

import (
	"testing"

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
