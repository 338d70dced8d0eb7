package fleet

import (
	"math/rand"
	"testing"
)

// BenchmarkHeap times pop+push pairs at a fleet shard's depth, in ns per
// event, on two shapes of pushes. scattered pushes every event at a time of
// its own, as a fleet of distinct sessions does (and as the benchmark's
// fleet.heap_push_pop_ns replays); runs pops a same-time run of 256 and
// pushes it back at one later time, as a batch of decision-identical
// sessions completes and is rescheduled.
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
	b.Run("runs", func(b *testing.B) {
		const run = 256
		rng := rand.New(rand.NewSource(1))
		var h Heap
		h.Reserve(depth)
		for i := 0; i < depth; i++ {
			h.Push(float64(i/run)/4, KindSegmentComplete, i)
		}
		sessions := make([]int, 0, run)
		moved := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Each op moves one run. The fill's last run is short, so count
			// the events moved.
			first, _ := h.Peek()
			sessions = sessions[:0]
			for len(sessions) < run {
				ev, ok := h.Peek()
				if !ok || ev.Time != first.Time {
					break
				}
				h.Pop()
				sessions = append(sessions, ev.Session)
			}
			next := first.Time + 5 + rng.Float64()
			for _, s := range sessions {
				h.Push(next, KindSegmentComplete, s)
			}
			moved += len(sessions)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moved), "ns/event")
	})
}
