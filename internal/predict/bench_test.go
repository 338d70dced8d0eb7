package predict

import "testing"

// BenchmarkViewportPredict times one viewport prediction from a full
// 50-sample history window (1 s at 50 Hz): the reusable predictor a session
// loop holds, and the one-shot Viewport it must match.
func BenchmarkViewportPredict(b *testing.B) {
	cfg := DefaultViewportConfig()
	n := int(cfg.HistorySec * cfg.SampleRate)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = 120 + 0.8*float64(i)
		ys[i] = 90 - 0.3*float64(i)
	}
	b.Run("predictor", func(b *testing.B) {
		p, err := NewViewportPredictor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Predict(xs, ys, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Viewport(xs, ys, 0.5, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
