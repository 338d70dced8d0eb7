package fleet

import (
	"math"
	"testing"
)

func TestHeapOrdering(t *testing.T) {
	var h Heap
	h.Push(3, KindSegmentComplete, 0)
	h.Push(1, KindJoin, 1)
	h.Push(2, KindSegmentComplete, 2)
	h.Push(1, KindSegmentComplete, 3) // ties with session 1's event; pushed later, pops later
	if ev, ok := h.Peek(); !ok || ev.Session != 1 || ev.Kind != KindJoin {
		t.Fatalf("Peek = %+v,%v, want join of session 1", ev, ok)
	}
	wantSessions := []int{1, 3, 2, 0}
	for i, want := range wantSessions {
		pk, pok := h.Peek()
		ev, ok := h.Pop()
		if !ok {
			t.Fatalf("pop %d: heap empty", i)
		}
		if !pok || pk != ev {
			t.Fatalf("pop %d: Peek %+v,%v disagrees with Pop %+v", i, pk, pok, ev)
		}
		if ev.Session != want {
			t.Fatalf("pop %d: session %d, want %d", i, ev.Session, want)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("pop from drained heap succeeded")
	}
	if _, ok := h.Peek(); ok {
		t.Fatal("peek at drained heap succeeded")
	}
}

// TestHeapRuns pins the pop order of runs of same-time pushes: (Time, push
// order) throughout, whether a run's pushes are consecutive or interleaved
// with other times, and -0 is the time +0.
func TestHeapRuns(t *testing.T) {
	var h Heap
	h.Push(2, KindSegmentComplete, 0)
	h.Push(2, KindSegmentComplete, 1)
	h.Push(1, KindJoin, 2)
	h.Push(2, KindSegmentComplete, 3)
	h.Push(2, KindSegmentComplete, 4)
	if ev, _ := h.Pop(); ev.Session != 2 || ev.Kind != KindJoin {
		t.Fatalf("first pop %+v, want join of session 2", ev)
	}
	for _, want := range []int{0, 1, 3} {
		if ev, _ := h.Pop(); ev.Session != want {
			t.Fatalf("pop: session %d, want %d", ev.Session, want)
		}
	}
	// A push at a pending time queues behind the events already there.
	h.Push(2, KindSegmentComplete, 5)
	for _, want := range []int{4, 5} {
		if ev, _ := h.Pop(); ev.Session != want {
			t.Fatalf("pop: session %d, want %d", ev.Session, want)
		}
	}
	// -0 ties with +0 on push order and keeps its sign.
	h.Push(2, KindSegmentComplete, 6)
	h.Push(0, KindSegmentComplete, 7)
	h.Push(math.Copysign(0, -1), KindSegmentComplete, 8)
	for _, want := range []int{7, 8, 6} {
		ev, _ := h.Pop()
		if ev.Session != want {
			t.Fatalf("pop: session %d, want %d", ev.Session, want)
		}
		if want == 8 && !math.Signbit(ev.Time) {
			t.Fatalf("session 8 popped at %g, pushed at -0", ev.Time)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("pop from drained heap succeeded")
	}
}

// FuzzEventHeapOrdering drives the heap through random interleavings of
// single pushes, bursts of equal-time pushes and pops, checking against a
// flat reference model that (a) every pop returns the minimum (time,
// push-order) among pending events, (b) no event is lost or popped twice,
// and (c) Peek always agrees with Pop.
func FuzzEventHeapOrdering(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0, 10, 2, 1, 0, 0, 0, 2, 0, 0, 5, 3, 1, 0, 0})
	f.Add([]byte{0, 1, 1, 0, 1, 2, 0, 1, 3, 1, 1, 0, 1, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 8, 5, 2, 4, 3, 1, 0, 0, 2, 8, 2, 1, 0, 0, 0, 8, 1, 2, 4, 7, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Heap
		type rec struct {
			time   float64
			popped bool
		}
		recs := make(map[uint64]*rec)
		var modelSeq uint64 // mirrors the heap's internal push sequence
		pending := func() int {
			n := 0
			for _, r := range recs {
				if !r.popped {
					n++
				}
			}
			return n
		}
		checkPop := func() {
			pk, pok := h.Peek()
			ev, ok := h.Pop()
			if pok != ok || (ok && pk != ev) {
				t.Fatalf("Peek %+v,%v disagrees with Pop %+v,%v", pk, pok, ev, ok)
			}
			if !ok {
				if pending() != 0 {
					t.Fatalf("pop reported empty with %d pending events", pending())
				}
				return
			}
			r := recs[ev.seq]
			if r == nil {
				t.Fatalf("popped unknown event %d", ev.seq)
			}
			if r.popped {
				t.Fatalf("popped event %d twice", ev.seq)
			}
			if r.time != ev.Time {
				t.Fatalf("event %d popped with time %g, pushed at %g", ev.seq, ev.Time, r.time)
			}
			// Minimality: nothing pending may order before the popped event.
			for seq, o := range recs {
				if o.popped {
					continue
				}
				if o.time < ev.Time || (o.time == ev.Time && seq < ev.seq) {
					t.Fatalf("popped (%g,%d) while (%g,%d) was pending", ev.Time, ev.seq, o.time, seq)
				}
			}
			r.popped = true
		}
		push := func(tm float64, b byte) {
			h.Push(tm, Kind(b%2), int(b))
			modelSeq++
			recs[modelSeq] = &rec{time: tm}
		}
		for i := 0; i+2 < len(data); i += 3 {
			tm := float64(data[i+1]%32) / 4
			switch data[i] % 3 {
			case 0:
				push(tm, data[i+2])
			case 1:
				checkPop()
			case 2:
				for k := 0; k < 2+int(data[i+2]%8); k++ {
					push(tm, data[i+2]+byte(k))
				}
			}
			if len(h.events) != pending() {
				t.Fatalf("heap holds %d events, model has %d pending", len(h.events), pending())
			}
		}
		// Drain: every pending event must come out, in order.
		for len(h.events) > 0 {
			checkPop()
		}
		if pending() != 0 {
			t.Fatalf("heap drained with %d pending events lost", pending())
		}
		if _, ok := h.Pop(); ok {
			t.Fatal("pop from drained heap succeeded")
		}
	})
}
