// Package fleet advances large populations of streaming sessions on a
// virtual clock. Instead of one blocking goroutine per viewer (which tops
// out far below the ROADMAP's million-session target), the sessions with
// one viewer, one bandwidth trace and one join time form a cohort that
// shares a compact sim.State, and whole cohorts are dealt to shards. A
// cohort's State is advanced one segment at a time for all its members by
// events popped from its shard's binary heap: one pending event per live
// cohort. Scheduling stays O(shards) goroutines regardless of the session
// count. The engine reuses the sim planners, lte bandwidth traces, and geom
// FoV LUT through one sim.Stepper per shard, and its per-session
// trajectories are bit-identical to the blocking sim.Run path (see the
// differential tests).
package fleet

// Kind discriminates virtual-clock events.
type Kind uint8

// Event kinds. A live cohort holds exactly one heap event, its members' next
// segment completion; a join comes from the shard's static schedule, and a
// leave settles inline with the completion that ends the session.
const (
	// KindJoin starts a cohort's sessions: the first segment request goes
	// out at the event's time.
	KindJoin Kind = iota
	// KindSegmentComplete fires when a segment download finishes; the
	// members account the segment (its stall included), those that leave
	// settle, and the rest request the next segment.
	KindSegmentComplete
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindSegmentComplete:
		return "segment_complete"
	}
	return "unknown"
}

// Event is one scheduled occurrence on a shard's virtual clock.
type Event struct {
	// Time is the virtual timestamp in seconds.
	Time float64
	// Kind is the event type.
	Kind Kind
	// Session is the index of what the event belongs to; the engine pushes
	// a shard-local cohort index.
	Session int
	seq     uint64
}

// Heap is a binary min-heap of events ordered by (Time, push order). Ties
// on Time pop in push order, so event processing is deterministic and FIFO
// at equal timestamps. Heap is not safe for concurrent use; each shard owns
// one.
type Heap struct {
	events []Event
	seq    uint64
}

// Reserve grows the heap's backing array to hold at least n events without
// reallocating; the engine knows the bound up front, one pending event per
// cohort.
func (h *Heap) Reserve(n int) {
	if cap(h.events) >= n {
		return
	}
	events := make([]Event, len(h.events), n)
	copy(events, h.events)
	h.events = events
}

// Push schedules an event.
func (h *Heap) Push(t float64, kind Kind, session int) {
	h.seq++
	h.events = append(h.events, Event{Time: t, Kind: kind, Session: session, seq: h.seq})
	h.up(len(h.events) - 1)
}

// Peek returns the earliest event without removing it.
func (h *Heap) Peek() (Event, bool) {
	if len(h.events) == 0 {
		return Event{}, false
	}
	return h.events[0], true
}

// Pop removes and returns the earliest event.
func (h *Heap) Pop() (Event, bool) {
	if len(h.events) == 0 {
		return Event{}, false
	}
	ev := h.events[0]
	n := len(h.events) - 1
	h.events[0] = h.events[n]
	h.events = h.events[:n]
	if n > 0 {
		h.down(0)
	}
	return ev, true
}

// less orders by (Time, seq): seq is the strictly increasing push sequence.
func (h *Heap) less(i, j int) bool {
	if h.events[i].Time != h.events[j].Time {
		return h.events[i].Time < h.events[j].Time
	}
	return h.events[i].seq < h.events[j].seq
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.events[i], h.events[parent] = h.events[parent], h.events[i]
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.events)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.events[i], h.events[min] = h.events[min], h.events[i]
		i = min
	}
}
