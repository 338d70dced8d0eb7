// Package fleet advances large populations of streaming sessions on a
// virtual clock. Instead of one blocking goroutine per viewer (which tops
// out far below the ROADMAP's million-session target), each session is a
// compact sim.State advanced one segment at a time by events popped from a
// per-shard binary heap; scheduling stays O(shards) goroutines regardless
// of the session count. The engine reuses the sim planners, lte bandwidth
// traces, and geom FoV LUT through one sim.Stepper per shard, and its
// per-session trajectories are bit-identical to the blocking sim.Run path
// (see the differential tests).
package fleet

import "math"

// Kind discriminates virtual-clock events.
type Kind uint8

// Event kinds. A live session holds exactly one heap event, its next
// segment completion; a join comes from the shard's static schedule, and a
// leave settles inline with the completion that ends the session.
const (
	// KindJoin starts a session: the first segment request is issued at the
	// event's time.
	KindJoin Kind = iota
	// KindSegmentComplete fires when a segment download finishes; the
	// session accounts the segment (its stall included) and issues the next
	// request, or leaves.
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
	// Session is the engine-global session index the event belongs to.
	Session int
	seq     uint64
}

// Heap is a min-queue of events ordered by (Time, push order). Ties on
// Time pop in push order, so event processing is deterministic and FIFO at
// equal timestamps. Heap is not safe for concurrent use; each shard owns one.
//
// A fleet pushes its events in same-time runs: a batch of decision-identical
// sessions completes together and is rescheduled together, so a shard's tens
// of thousands of pending events sit at a few dozen timestamps. The heap
// therefore orders runs, not events. A run is a maximal sequence of
// consecutive pushes at one (bit-identical) time; its events wait in FIFO
// order in a node slab, linked through node.next. A push joins the most
// recently opened run if that run is still pending and has the same time,
// and otherwise opens a new run. So a run's events carry consecutive push
// sequence numbers, and every event of an earlier-opened run was pushed
// before every event of a later one: ordering runs by (time, sequence of
// their head) pops events in exactly (Time, push order). Pop takes the head
// of the top run in O(1); the run heap sifts only when a run opens or
// drains.
//
// A push at a time other than the latest run's opens a run, so a heap fed
// scattered times degrades to a binary heap of one-event runs: a plain
// event heap plus one slab indirection per pop.
type Heap struct {
	runs  []run  // binary min-heap by (time, seq)
	nodes []node // event slab; free nodes are chained from free
	n     int    // pending events
	seq   uint64 // push sequence of the last push
	free  link   // first free node
	// tail is the last node of the most recently opened run while that run
	// is pending, else 0; tailTime is that run's time.
	tail     link
	tailTime float64
}

// link addresses a node as its slab index + 1, so the zero value is nil
// and a zero Heap is ready to use.
type link int

// run is one heap entry: a FIFO of pending events sharing one time. seq is
// the push sequence of its head; the events behind it follow at seq+1,
// seq+2, ...
type run struct {
	time float64
	seq  uint64
	head link
}

// node is one pending event of a run, or a free slab slot.
type node struct {
	session int
	next    link
	kind    Kind
}

// Reserve sizes the heap to hold at least n events without reallocating.
// Growing a fleet-sized heap by append-doubling memmoves megabytes; the
// engine knows the bound up front, one pending event per session. A heap
// never holds more runs than events, so n bounds both arrays.
func (h *Heap) Reserve(n int) {
	if cap(h.nodes) < n {
		nodes := make([]node, len(h.nodes), n)
		copy(nodes, h.nodes)
		h.nodes = nodes
	}
	if cap(h.runs) < n {
		runs := make([]run, len(h.runs), n)
		copy(runs, h.runs)
		h.runs = runs
	}
}

// Push schedules an event.
func (h *Heap) Push(t float64, kind Kind, session int) {
	h.seq++
	l := h.free
	if l != 0 {
		h.free = h.nodes[l-1].next
	} else {
		h.nodes = append(h.nodes, node{})
		l = link(len(h.nodes))
	}
	h.nodes[l-1] = node{session: session, kind: kind}
	h.n++
	if h.tail != 0 && math.Float64bits(h.tailTime) == math.Float64bits(t) {
		h.nodes[h.tail-1].next = l
		h.tail = l
		return
	}
	h.runs = append(h.runs, run{time: t, seq: h.seq, head: l})
	h.tail, h.tailTime = l, t
	h.up(len(h.runs) - 1)
}

// Peek returns the earliest event without removing it.
func (h *Heap) Peek() (Event, bool) {
	if len(h.runs) == 0 {
		return Event{}, false
	}
	r := &h.runs[0]
	nd := &h.nodes[r.head-1]
	return Event{Time: r.time, Kind: nd.kind, Session: nd.session, seq: r.seq}, true
}

// Pop removes and returns the earliest event.
func (h *Heap) Pop() (Event, bool) {
	if len(h.runs) == 0 {
		return Event{}, false
	}
	r := &h.runs[0]
	l := r.head
	nd := &h.nodes[l-1]
	ev := Event{Time: r.time, Kind: nd.kind, Session: nd.session, seq: r.seq}
	h.n--
	if l == h.tail {
		// The last event of the most recently opened run: that run is no
		// longer pending, so the next push opens a new one.
		h.tail = 0
	}
	r.head = nd.next
	r.seq++
	nd.next, h.free = h.free, l
	if r.head == 0 {
		last := len(h.runs) - 1
		h.runs[0] = h.runs[last]
		h.runs = h.runs[:last]
		if last > 0 {
			h.down(0)
		}
	}
	return ev, true
}

// less orders runs by (time, seq). Runs hold disjoint ranges of the push
// sequence, so comparing heads orders them as their first pushes did.
func (h *Heap) less(i, j int) bool {
	if h.runs[i].time != h.runs[j].time {
		return h.runs[i].time < h.runs[j].time
	}
	return h.runs[i].seq < h.runs[j].seq
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.runs[i], h.runs[parent] = h.runs[parent], h.runs[i]
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.runs)
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
		h.runs[i], h.runs[min] = h.runs[min], h.runs[i]
		i = min
	}
}
