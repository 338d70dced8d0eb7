package abr

import "testing"

// BenchmarkEnergyMPCDecide times one energy-MPC decision over the paper's
// horizon: 5 segments of 20 options (5 qualities × 4 frame rates).
func BenchmarkEnergyMPCDecide(b *testing.B) {
	m, err := NewEnergyMPC(DefaultConfig(1429.08))
	if err != nil {
		b.Fatal(err)
	}
	h := horizon(5, makeOptions(allRates()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Decide(2, 4e6, h); err != nil {
			b.Fatal(err)
		}
	}
}
