package experiments

import (
	"reflect"
	"testing"

	"ptile360/internal/predict"
)

// netemRowsByKey indexes the sweep for assertions.
func netemRowsByKey(t *testing.T, res *NetemResult) map[[3]string]NetemRow {
	t.Helper()
	idx := make(map[[3]string]NetemRow, len(res.Rows))
	for _, r := range res.Rows {
		k := [3]string{r.Profile, r.Model, r.Estimator}
		if _, dup := idx[k]; dup {
			t.Fatalf("duplicate row %v", k)
		}
		idx[k] = r
	}
	return idx
}

// TestNetemFigBufferbloatDelayGradientBeatsHarmonic pins the PR's headline
// robustness claim: under the bufferbloat profile on the packet-level model,
// the delay-gradient estimator stalls measurably less than the harmonic mean
// at equal-or-better QoE. The run is fully deterministic, so the margins are
// stable across machines and reruns.
func TestNetemFigBufferbloatDelayGradientBeatsHarmonic(t *testing.T) {
	scale := QuickScale()
	scale.NetemProfile = "bufferbloat"
	res, err := NetemFig(8, scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 (bufferbloat x {segment,packet} x {harmonic,delay-gradient})", len(res.Rows))
	}
	idx := netemRowsByKey(t, res)
	h := idx[[3]string{"bufferbloat", "packet", predict.EstimatorHarmonic.String()}]
	dg := idx[[3]string{"bufferbloat", "packet", predict.EstimatorDelayGradient.String()}]
	if h.Packets == 0 || dg.Packets == 0 {
		t.Fatalf("packet model moved no packets: harmonic %d, delay-gradient %d", h.Packets, dg.Packets)
	}
	// Measurably lower stall: at most half the harmonic stall time, and
	// strictly fewer stall events.
	if !(dg.StallSec < 0.5*h.StallSec) {
		t.Errorf("delay-gradient stall %.2fs not measurably below harmonic %.2fs", dg.StallSec, h.StallSec)
	}
	if dg.Stalls >= h.Stalls {
		t.Errorf("delay-gradient stalls %d >= harmonic %d", dg.Stalls, h.Stalls)
	}
	// At equal or better QoE.
	if dg.MeanQoE < h.MeanQoE {
		t.Errorf("delay-gradient QoE %.3f below harmonic %.3f", dg.MeanQoE, h.MeanQoE)
	}
	// The stall advantage must come from the packet dynamics the segment
	// model cannot express: both estimators stall on the segment model too,
	// so the figure is not comparing against a degenerate baseline.
	segH := idx[[3]string{"bufferbloat", "segment", predict.EstimatorHarmonic.String()}]
	if segH.StallSec == 0 {
		t.Errorf("segment-model harmonic never stalls: sag too shallow to exercise the ladder")
	}
}

// TestNetemFigDeterministic pins replay: the sweep is a pure function of
// (video, scale), bit-identical across runs.
func TestNetemFigDeterministic(t *testing.T) {
	scale := QuickScale()
	scale.NetemProfile = "suddendrop"
	a, err := NetemFig(8, scale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NetemFig(8, scale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("netem sweep not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
