package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/obs"
	"ptile360/internal/parallel"
	"ptile360/internal/sim"
)

// SessionSpec describes one viewer the engine should simulate. Traces may be
// shared freely between specs (and with other engines): both trace types are
// read-only or internally locked, and mutable session state lives in the
// sim.State the engine creates at join time. Specs with the same User, Net
// and JoinSec form a cohort and share that State.
type SessionSpec struct {
	// User is the head-movement trace.
	User *headtrace.Trace
	// Net is the bandwidth trace.
	Net *lte.Trace
	// JoinSec is the virtual time at which the session joins the fleet;
	// finite and not negative.
	JoinSec float64
	// LeaveAfterSegments truncates the session after this many segments;
	// zero streams the whole catalogue. At most math.MaxInt32.
	LeaveAfterSegments int
}

// Config tunes the fleet engine.
type Config struct {
	// Catalog is the encoded-video catalogue every session streams.
	Catalog *sim.Catalog
	// Sim is the per-session streaming configuration (scheme, phone, MPC
	// settings) shared by the whole fleet.
	Sim sim.Config
	// Shards is the number of independent event queues. New deals whole
	// cohorts to them round-robin in the order of their first members, so
	// each cohort steps once per segment whatever the shard count, and a
	// shard beyond the cohort count stays empty. Each shard that holds a
	// cohort owns a private sim.Stepper (plan scratch, controllers) and is
	// advanced by at most one goroutine, so Shards bounds both parallelism
	// and the number of copies of the planning scratch.
	Shards int
	// Workers caps the goroutines advancing shards (0 = one per shard).
	// Scheduling cost is O(Shards) goroutines at most, independent of the
	// session count.
	Workers int
	// Deprecated: ignored. A session changes state only at its segment
	// decisions, and the planners read the head trace directly, so the
	// engine schedules no head-pose tick.
	ViewportUpdateSec float64
	// Registry receives the fleet metrics; nil creates a private registry.
	Registry *obs.Registry
	// Flight, when set, black-boxes 1-in-SampleEvery sessions (the
	// recorder's SessionN gate): join/download/stall/leave events land in
	// per-session rings that dump on anomaly triggers. A nil recorder costs
	// one nil check per event, and a completion writes events for its
	// cohort's sampled members only, preserving the steady-state allocation
	// budget.
	Flight *obs.FlightRecorder
}

// Ledger is the fleet-wide accounting roll-up. Integer fields are exact and
// do not depend on the shard count; float fields are summed per shard in
// event order and then across shards in shard order, so they are
// deterministic for a fixed shard count regardless of worker count, and
// other shard counts move them only by summation order. Everything is booked
// at a join, a segment completion or a leave, the only events a session has.
// A cohort's members take these together, from one heap event, and the
// ledger books them once per member.
type Ledger struct {
	// Joined, Finished, Active count sessions; Active = Joined − Finished.
	Joined, Finished, Active int
	// Segments counts completed segment downloads fleet-wide.
	Segments int
	// Stalls and StallSec count rebuffering events and their total
	// duration, booked when the stalled segment's download completes.
	Stalls   int
	StallSec float64
	// EnergyMJ, QoESum, and Bits accumulate finished sessions' energy
	// totals, session mean QoE, and downloaded bits.
	EnergyMJ float64
	QoESum   float64
	Bits     float64
	// Emergencies counts finished sessions' emergency controller decisions.
	Emergencies int
	// Events counts every member's joins, segment completions and leaves:
	// Joined + Segments + Finished. It is read from the ledger, not counted
	// in heap pops, which number one per cohort.
	Events int
	// BatchLeaders and BatchReplays decompose the member steps taken:
	// cohort steps, each one Stepper.Step of a cohort's shared State, and
	// the further member steps each such step served. A cohort lives whole
	// on one shard, so it steps once per segment fleet-wide and both
	// counts are the same at any shard count. Every join steps once
	// and every segment completion steps again unless the session leaves,
	// so between Advance calls Leaders + Replays = Joined + Segments −
	// Finished. BatchFallbacks reads 0: every step is a cohort step or
	// served by one. It stays because the benchmark harness reads it.
	BatchLeaders   int
	BatchReplays   int
	BatchFallbacks int
}

// add folds another ledger in (shard roll-up).
func (l *Ledger) add(o Ledger) {
	l.Joined += o.Joined
	l.Finished += o.Finished
	l.Segments += o.Segments
	l.Stalls += o.Stalls
	l.StallSec += o.StallSec
	l.EnergyMJ += o.EnergyMJ
	l.QoESum += o.QoESum
	l.Bits += o.Bits
	l.Emergencies += o.Emergencies
	l.BatchLeaders += o.BatchLeaders
	l.BatchReplays += o.BatchReplays
	l.BatchFallbacks += o.BatchFallbacks
}

// shard is one independent event queue plus the cohorts dealt to it. A
// shard is advanced by at most one goroutine at a time; its stepper and heap
// are never shared.
type shard struct {
	eng *Engine
	// stepper is nil on a shard dealt no cohort.
	stepper *sim.Stepper
	// heap holds one event per live cohort, the members' next segment
	// completion, carrying the cohort's index in cohorts.
	heap Heap

	// cohorts holds the cohorts dealt to the shard, in the fleet's cohort
	// order: fleet cohort g is the shard's entry g / Shards on shard
	// g % Shards.
	cohorts []cohort

	// joins is the shard's join schedule, one entry per cohort sorted by
	// (time, cohort), and joinPos the next cohort to join. The whole wave
	// is known at construction, so it never touches the heap: a
	// million-session fleet starts with an empty heap, and each join costs
	// a cursor bump instead of an O(log n) pop. Joins order before heap
	// events at the same timestamp.
	joins   []joinEv
	joinPos int

	// arena bump-allocates cohort states in chunks, so binding one costs
	// 1/256th of an allocation instead of one. Chunks are reclaimed
	// wholesale once every cohort living in them has left.
	arena    []sim.State
	arenaPos int

	led Ledger
	err error
}

// cohort is the shared state of the sessions with one (User, Net, JoinSec).
// On a bandwidth trace a sim.State is a deterministic function of its
// viewer, its trace and the steps it has taken: binding seeds it from the
// trace alone, a step reads only the State, the stepper's (catalogue,
// config) and those traces, and only a step writes it. Members join
// together and take their steps at the same virtual times, so each member's
// own State would equal the cohort's, and one State stepped once serves
// them all, bit for bit. So a cohort is scheduled as one: it holds one heap
// event, and its completion books the segment for every member, settles the
// members that leave from the State before it steps on, then steps once.
type cohort struct {
	// state is nil before the cohort joins and after its last member leaves.
	state *sim.State
	// members holds the session indices of the members that have not left,
	// in session order, and sampled those of them the flight recorder
	// samples (nil without one). Each is a window of a fleet-wide array New
	// sizes once, so a leave compacts it in place.
	members, sampled []int32
	// minLeave is the smallest leave count among members, 0 when none has
	// one: the completion that reaches it, or the last segment, is the only
	// one that scans the members for leavers.
	minLeave int32
	// info is the state's last step: the download every member has pending.
	info sim.StepInfo
}

// joinEv is one entry of a shard's static join schedule.
type joinEv struct {
	time   float64
	cohort int
}

// stateChunk is the arena chunk size in cohort states.
const stateChunk = 256

// allocState returns a fresh uninitialized State from the shard's arena.
func (sh *shard) allocState() *sim.State {
	if sh.arenaPos == len(sh.arena) {
		sh.arena = make([]sim.State, stateChunk)
		sh.arenaPos = 0
	}
	st := &sh.arena[sh.arenaPos]
	sh.arenaPos++
	return st
}

// Engine advances a fleet of sessions on per-shard virtual clocks.
type Engine struct {
	cfg    Config
	specs  []SessionSpec
	shards []*shard
	// results, leave (LeaveAfterSegments) and flight (the black-box
	// sessions, nil when Config.Flight is unset; unsampled sessions hold
	// nil) are per-session columns. Only the shard a session's cohort is
	// dealt to writes its entries.
	results []*sim.Result
	leave   []int32
	flight  []*obs.FlightSession
	reg     *obs.Registry
	met     fleetMetrics
	pub     Ledger
}

// fleetMetrics are the obs series the engine publishes after every Advance.
type fleetMetrics struct {
	active    *obs.Gauge
	clock     *obs.Gauge
	joined    *obs.Counter
	finished  *obs.Counter
	segments  *obs.Counter
	stalls    *obs.Counter
	stallSec  *obs.Counter
	energyMJ  *obs.Counter
	bits      *obs.Counter
	shardsG   *obs.Gauge
	sessionsG *obs.Gauge

	batchLeaders   *obs.Counter
	batchReplays   *obs.Counter
	batchFallbacks *obs.Counter
}

// New builds an engine over the given session population. It groups the
// sessions into cohorts, numbered in the order of their first members, and
// deals each whole cohort to one shard, round-robin. Construction is cheap
// per session (a cohort lookup and a member-list entry); a cohort's state
// is allocated when it joins.
func New(cfg Config, specs []SessionSpec) (*Engine, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("fleet: need at least one shard, got %d", cfg.Shards)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("fleet: no sessions")
	}
	for i, spec := range specs {
		if math.IsNaN(spec.JoinSec) || math.IsInf(spec.JoinSec, 0) {
			return nil, fmt.Errorf("fleet: session %d joins at non-finite time %g", i, spec.JoinSec)
		}
		if spec.JoinSec < 0 {
			return nil, fmt.Errorf("fleet: session %d joins at negative time %g", i, spec.JoinSec)
		}
		if spec.LeaveAfterSegments < 0 || spec.LeaveAfterSegments > math.MaxInt32 {
			return nil, fmt.Errorf("fleet: session %d has leave count %d outside [0, %d]",
				i, spec.LeaveAfterSegments, math.MaxInt32)
		}
	}
	if cfg.Shards > len(specs) {
		cfg.Shards = len(specs)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		cfg:     cfg,
		specs:   specs,
		shards:  make([]*shard, cfg.Shards),
		results: make([]*sim.Result, len(specs)),
		leave:   make([]int32, len(specs)),
		reg:     reg,
	}
	if cfg.Flight != nil {
		e.flight = make([]*obs.FlightSession, len(specs))
	}
	e.registerMetrics()
	// JoinSec compares by value: +0 and −0 join in one cohort.
	type cohortKey struct {
		user *headtrace.Trace
		net  *lte.Trace
		join float64
	}
	index := make(map[cohortKey]int32)
	ids := make([]int32, len(specs)) // each session's cohort
	var sizes []int                  // members per cohort
	for i, spec := range specs {
		key := cohortKey{spec.User, spec.Net, spec.JoinSec}
		id, ok := index[key]
		if !ok {
			id = int32(len(sizes))
			index[key] = id
			sizes = append(sizes, 0)
		}
		ids[i] = id
		sizes[id]++
		e.leave[i] = int32(spec.LeaveAfterSegments)
	}
	n := cfg.Shards
	for si := range e.shards {
		sh := &shard{eng: e}
		if dealt := (len(sizes) - si + n - 1) / n; dealt > 0 {
			// One stepper per shard: steppers carry mutable planning scratch
			// and must not be shared, but every copy is built from the same
			// (catalogue, config) pair so the math is identical on any shard.
			stepper, err := sim.NewStepper(cfg.Catalog, cfg.Sim)
			if err != nil {
				return nil, err
			}
			sh.stepper = stepper
			sh.cohorts = make([]cohort, 0, dealt)
		}
		e.shards[si] = sh
	}
	// Each cohort's member lists are windows of one fleet-wide array, laid
	// out cohort by cohort.
	members := make([]int32, len(specs))
	var sampled []int32
	if cfg.Flight != nil {
		sampled = make([]int32, len(specs))
	}
	off := 0
	for g, size := range sizes {
		c := cohort{members: members[off : off : off+size]}
		if sampled != nil {
			c.sampled = sampled[off : off : off+size]
		}
		off += size
		sh := e.shards[g%n]
		sh.cohorts = append(sh.cohorts, c)
	}
	for i, g := range ids {
		c := &e.shards[int(g)%n].cohorts[int(g)/n]
		c.members = append(c.members, int32(i))
		if l := e.leave[i]; l != 0 && (c.minLeave == 0 || l < c.minLeave) {
			c.minLeave = l
		}
	}
	for _, sh := range e.shards {
		sh.joins = make([]joinEv, len(sh.cohorts))
		for id, c := range sh.cohorts {
			sh.joins[id] = joinEv{time: specs[c.members[0]].JoinSec, cohort: id}
		}
		// A shard's cohorts keep the fleet's first-member order, so equal
		// join times keep that order.
		slices.SortFunc(sh.joins, func(a, b joinEv) int {
			return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.cohort, b.cohort))
		})
		// A live cohort holds exactly one heap event, its next completion.
		sh.heap.Reserve(len(sh.cohorts))
	}
	return e, nil
}

func (e *Engine) registerMetrics() {
	m := &e.met
	m.active = e.reg.Gauge("fleet_sessions_active", "Sessions currently streaming.")
	m.clock = e.reg.Gauge("fleet_clock_seconds", "Lowest pending virtual timestamp across shards.")
	m.joined = e.reg.Counter("fleet_sessions_joined_total", "Sessions that have joined.")
	m.finished = e.reg.Counter("fleet_sessions_finished_total", "Sessions that have left.")
	m.segments = e.reg.Counter("fleet_segments_total", "Segment downloads completed fleet-wide.")
	m.stalls = e.reg.Counter("fleet_stalls_total", "Rebuffering stalls fleet-wide.")
	m.stallSec = e.reg.Counter("fleet_stall_seconds_total", "Total rebuffering time fleet-wide.")
	m.energyMJ = e.reg.Counter("fleet_energy_mj_total", "Energy of finished sessions (mJ).")
	m.bits = e.reg.Counter("fleet_bits_downloaded_total", "Bits downloaded by finished sessions.")
	m.shardsG = e.reg.Gauge("fleet_shards", "Configured shard count.")
	m.sessionsG = e.reg.Gauge("fleet_sessions_total", "Configured session count.")
	m.batchLeaders = e.reg.Counter("fleet_batch_leaders_total",
		"Cohort steps: one session step of a cohort's shared state.")
	m.batchReplays = e.reg.Counter("fleet_batch_replays_total",
		"Further member steps served by a cohort step.")
	m.batchFallbacks = e.reg.Counter("fleet_batch_fallbacks_total",
		"Steps outside any cohort; always 0.")
}

// Registry returns the registry carrying the fleet metrics.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Sessions returns the configured session count.
func (e *Engine) Sessions() int { return len(e.specs) }

// Advance processes every event with timestamp ≤ until on all shards, using
// at most Workers goroutines (never more than one per shard), then
// publishes the aggregate ledger to the metrics registry. It must not be
// called concurrently with itself or with Ledger/Results.
func (e *Engine) Advance(until float64) error {
	err := parallel.ForEach(len(e.shards), e.workers(), func(si int) error {
		return e.shards[si].advance(until)
	})
	e.publish()
	return err
}

// Run advances until every shard's event queue is empty.
func (e *Engine) Run() error { return e.Advance(math.Inf(1)) }

func (e *Engine) workers() int {
	w := e.cfg.Workers
	if w <= 0 || w > len(e.shards) {
		w = len(e.shards)
	}
	return w
}

// NextEventTime returns the earliest pending virtual timestamp across
// shards, or false when the fleet has fully drained.
func (e *Engine) NextEventTime() (float64, bool) {
	t, ok := math.Inf(1), false
	for _, sh := range e.shards {
		if j := sh.joinPos; j < len(sh.joins) && sh.joins[j].time < t {
			t, ok = sh.joins[j].time, true
		}
		if ev, hok := sh.heap.Peek(); hok && ev.Time < t {
			t, ok = ev.Time, true
		}
	}
	return t, ok
}

// Ledger aggregates the per-shard ledgers in shard order.
func (e *Engine) Ledger() Ledger {
	var l Ledger
	for _, sh := range e.shards {
		l.add(sh.led)
	}
	l.Active = l.Joined - l.Finished
	l.Events = l.Joined + l.Segments + l.Finished
	return l
}

// Results returns the per-session results in spec order. Sessions that have
// not yet left are nil. The members of a cohort share the array behind
// their Result.PerSegment rows: appending to a Result's rows is safe, but
// writing a row in place writes it for every member.
func (e *Engine) Results() []*sim.Result { return e.results }

// publish pushes the aggregate ledger into the obs registry. Counters
// receive the delta since the last publish, so scraped values equal the
// ledger exactly between Advance calls.
func (e *Engine) publish() {
	l := e.Ledger()
	m := &e.met
	m.active.Set(float64(l.Active))
	if t, ok := e.NextEventTime(); ok {
		m.clock.Set(t)
	}
	m.joined.Add(float64(l.Joined - e.pub.Joined))
	m.finished.Add(float64(l.Finished - e.pub.Finished))
	m.segments.Add(float64(l.Segments - e.pub.Segments))
	m.stalls.Add(float64(l.Stalls - e.pub.Stalls))
	m.stallSec.Add(l.StallSec - e.pub.StallSec)
	m.energyMJ.Add(l.EnergyMJ - e.pub.EnergyMJ)
	m.bits.Add(l.Bits - e.pub.Bits)
	m.batchLeaders.Add(float64(l.BatchLeaders - e.pub.BatchLeaders))
	m.batchReplays.Add(float64(l.BatchReplays - e.pub.BatchReplays))
	m.batchFallbacks.Add(float64(l.BatchFallbacks - e.pub.BatchFallbacks))
	m.shardsG.Set(float64(len(e.shards)))
	m.sessionsG.Set(float64(len(e.specs)))
	e.pub = l
}

// advance drains the shard's queue up to the time horizon. Every event is a
// cohort's join from the static schedule or its segment completion from the
// heap, and every member of the cohort takes it.
func (sh *shard) advance(until float64) error {
	if sh.err != nil {
		return sh.err
	}
	for {
		// Next occurrence: the join cursor merges with the heap top, joins
		// winning ties.
		ev, ok := sh.heap.Peek()
		if j := sh.joinPos; j < len(sh.joins) && (!ok || sh.joins[j].time <= ev.Time) {
			ev = Event{Time: sh.joins[j].time, Kind: KindJoin, Session: sh.joins[j].cohort}
		} else if !ok {
			return nil
		}
		if ev.Time > until {
			return nil
		}
		var err error
		if ev.Kind == KindJoin {
			sh.joinPos++
			err = sh.join(ev.Time, ev.Session)
		} else {
			sh.heap.Pop()
			err = sh.complete(ev.Time, ev.Session)
		}
		if err != nil {
			sh.err = fmt.Errorf("fleet: %s at t=%.3f: %w", ev.Kind, ev.Time, err)
			return sh.err
		}
	}
}

// join binds a cohort's state, books its members' joins and takes its first
// step.
func (sh *shard) join(t float64, id int) error {
	c := &sh.cohorts[id]
	e := sh.eng
	spec := e.specs[c.members[0]]
	c.state = sh.allocState()
	if err := sh.stepper.InitState(c.state, spec.User, spec.Net); err != nil {
		return err
	}
	sh.led.Joined += len(c.members)
	if e.flight != nil {
		// Pass every member through the recorder's sampling gate.
		for _, i := range c.members {
			fsess := e.cfg.Flight.SessionN(int(i))
			e.flight[i] = fsess
			if fsess != nil {
				fsess.Record(obs.FlightEvent{TimeSec: t, Kind: obs.FlightJoin, Seg: -1})
				c.sampled = append(c.sampled, i)
			}
		}
	}
	return sh.step(t, id)
}

// complete books the segment download a cohort's members finished at time
// t, its stall included, settles the members that leave with it (catalogue
// exhausted or their LeaveAfterSegments reached), and steps the rest on.
func (sh *shard) complete(t float64, id int) error {
	c := &sh.cohorts[id]
	info, n := c.info, len(c.members)
	sh.led.Segments += n
	if info.StallSec > 0 {
		sh.led.Stalls += n
		// One add per member, as each member booking its own stall would
		// make: a single n·StallSec rounds differently.
		for range n {
			sh.led.StallSec += info.StallSec
		}
	}
	for _, i := range c.sampled {
		sh.eng.flight[i].RecordSegment(t, info.Segment, info.DownloadSec, info.StallSec, c.state.EstimateBps(), false)
	}
	if info.Done || c.minLeave != 0 && c.state.Segments() >= int(c.minLeave) {
		if err := sh.settle(t, c); err != nil {
			return err
		}
		if len(c.members) == 0 {
			c.state = nil
			return nil
		}
	}
	return sh.step(t, id)
}

// step advances a cohort's state by one segment for all its members and
// schedules their next completion.
func (sh *shard) step(t float64, id int) error {
	c := &sh.cohorts[id]
	info, err := sh.stepper.Step(c.state)
	if err != nil {
		return fmt.Errorf("session %d: %w", c.members[0], err)
	}
	c.info = info
	sh.led.BatchLeaders++
	sh.led.BatchReplays += len(c.members) - 1
	sh.heap.Push(t+info.WaitSec+info.DownloadSec, KindSegmentComplete, id)
	return nil
}

// settle retires, in session order, the members of a cohort that leave at
// time t, before its state steps on: every member when the catalogue is
// exhausted, else those whose leave count the state has reached. They all
// read the one state, so one Finish settles them: each gets its own copy of
// the Result, sharing its rows (see Engine.Results). It then recomputes the
// smallest leave count still pending.
func (sh *shard) settle(t float64, c *cohort) error {
	e := sh.eng
	segs := c.state.Segments()
	stay := c.members[:0]
	c.minLeave = 0
	var res *sim.Result
	for _, i := range c.members {
		if l := e.leave[i]; !c.info.Done && (l == 0 || segs < int(l)) {
			stay = append(stay, i)
			if l != 0 && (c.minLeave == 0 || l < c.minLeave) {
				c.minLeave = l
			}
			continue
		}
		if res == nil {
			var err error
			if res, err = sh.stepper.Finish(c.state); err != nil {
				return fmt.Errorf("session %d: %w", i, err)
			}
		} else {
			own := *res
			res = &own
		}
		sh.finish(t, i, res)
	}
	c.members = stay
	if e.flight != nil {
		c.sampled = slices.DeleteFunc(c.sampled, func(i int32) bool { return e.flight[i] == nil })
	}
	return nil
}

// finish retires member session i, which leaves at time t with result res,
// and books its accounting. Each leaver books its own adds, in session
// order: one n-fold add would round differently.
func (sh *shard) finish(t float64, i int32, res *sim.Result) {
	e := sh.eng
	// Only the shard holding the session's cohort writes its entries.
	e.results[i] = res
	sh.led.Finished++
	sh.led.EnergyMJ += res.Energy.Total()
	sh.led.QoESum += res.QoE.MeanQ
	sh.led.Bits += res.BitsDownloaded
	sh.led.Emergencies += res.Emergencies
	if e.flight != nil {
		if fsess := e.flight[i]; fsess != nil {
			fsess.Record(obs.FlightEvent{TimeSec: t, Kind: obs.FlightLeave, Seg: -1,
				EnergyMJ: res.Energy.Total(), QoE: res.QoE.MeanQ})
			fsess.Close()
			e.flight[i] = nil
		}
	}
}
