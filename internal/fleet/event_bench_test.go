package fleet

import (
	"math/rand"
	"testing"
)

// BenchmarkHeap times pop+push pairs at a fleet shard's depth, in ns per
// event, pushing every event at a time of its own, as a shard of distinct
// cohorts does (and as the benchmark's fleet.heap_push_pop_ns replays).
func BenchmarkHeap(b *testing.B) {
	const depth = 10_000
	b.Run("scattered", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var h Heap
		h.Reserve(depth)
		for i := 0; i < depth; i++ {
			h.Push(rng.Float64()*10, KindSegmentComplete, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev, _ := h.Pop()
			h.Push(ev.Time+0.5+rng.Float64(), ev.Kind, ev.Session)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	})
}
