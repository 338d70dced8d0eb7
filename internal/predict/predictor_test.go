package predict

import (
	"math"
	"testing"
)

// TestViewportPredictorMatchesViewport pins the prepared-design predictor
// bit-for-bit against the one-shot Viewport across kinds, history lengths
// (shorter and longer than the window), and horizons — reusing one
// predictor for every call so buffer reuse is exercised.
func TestViewportPredictorMatchesViewport(t *testing.T) {
	state := uint64(2024)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	walk := func(n int) (xs, ys []float64) {
		xs = make([]float64, n)
		ys = make([]float64, n)
		x, y := next()*360, 30+next()*120
		for i := 0; i < n; i++ {
			x += (next() - 0.45) * 2
			y += (next() - 0.5) * 1.5
			xs[i] = x
			ys[i] = y
		}
		return xs, ys
	}
	for _, kind := range []ViewportKind{ViewportRidge, ViewportOLS, ViewportStatic} {
		cfg := DefaultViewportConfig()
		cfg.Kind = kind
		p, err := NewViewportPredictor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Lengths revisit earlier ones, as interleaved warming-up and steady
		// sessions do, so prepared designs are reused across other lengths.
		for _, n := range []int{2, 10, 49, 50, 51, 200, 10, 3, 50, 2} {
			xs, ys := walk(n)
			for _, h := range []float64{0, 0.5, 1, 2} {
				want, err := Viewport(xs, ys, h, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.Predict(xs, ys, h)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.X) != math.Float64bits(want.X) ||
					math.Float64bits(got.Y) != math.Float64bits(want.Y) {
					t.Fatalf("kind %v n %d h %g: predictor %+v, Viewport %+v", kind, n, h, got, want)
				}
			}
		}
	}
}

// TestViewportPredictorErrors checks the predictor rejects what Viewport
// rejects.
func TestViewportPredictorErrors(t *testing.T) {
	if _, err := NewViewportPredictor(ViewportConfig{HistorySec: -1, SampleRate: 50}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewViewportPredictor(ViewportConfig{HistorySec: 0.01, SampleRate: 50, Lambda: 1}); err == nil {
		t.Fatal("sub-2-sample window accepted")
	}
	p, err := NewViewportPredictor(DefaultViewportConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := p.Predict([]float64{1}, []float64{1}, 1); err == nil {
		t.Fatal("single sample accepted")
	}
	if _, err := p.Predict([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

// TestEstimatorRingBufferMatchesAppendPath pins the in-place window shift
// against the old append-and-reslice behaviour for both windowed estimators.
func TestEstimatorRingBufferMatchesAppendPath(t *testing.T) {
	state := uint64(5150)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return 1e6 + float64(state>>11)/float64(1<<53)*1e7
	}
	for _, window := range []int{1, 3, 5, 8} {
		bw, err := NewBandwidth(window)
		if err != nil {
			t.Fatal(err)
		}
		ma, err := NewMovingAverage(window)
		if err != nil {
			t.Fatal(err)
		}
		var ref []float64
		for i := 0; i < 40; i++ {
			v := next()
			if err := bw.Observe(v); err != nil {
				t.Fatal(err)
			}
			if err := ma.Observe(v); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, v)
			if len(ref) > window {
				ref = ref[len(ref)-window:]
			}
			wantHM := 0.0
			for _, x := range ref {
				wantHM += 1 / x
			}
			wantHM = float64(len(ref)) / wantHM
			gotHM, err := bw.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(gotHM) != math.Float64bits(wantHM) {
				t.Fatalf("window %d step %d: harmonic %v, reference %v", window, i, gotHM, wantHM)
			}
			var wantMean float64
			for _, x := range ref {
				wantMean += x
			}
			wantMean /= float64(len(ref))
			gotMean, err := ma.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(gotMean) != math.Float64bits(wantMean) {
				t.Fatalf("window %d step %d: mean %v, reference %v", window, i, gotMean, wantMean)
			}
		}
	}
}
