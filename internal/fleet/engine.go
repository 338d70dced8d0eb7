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
// sim.State the engine creates at join time. Specs of one shard with the same
// User, Net and JoinSec form a cohort and share that State.
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
	// Shards is the number of independent event queues. Each shard owns a
	// private sim.Stepper (plan scratch, controllers) and is advanced by at
	// most one goroutine, so Shards bounds both parallelism and the number
	// of copies of the planning scratch.
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
	// per-session rings that dump on anomaly triggers. Unsampled sessions
	// and nil recorders cost one nil check per event, preserving the
	// steady-state allocation budget.
	Flight *obs.FlightRecorder
}

// Ledger is the fleet-wide accounting roll-up. Integer fields are exact;
// float fields are summed per shard in event order and then across shards
// in shard order, so they are deterministic for a fixed shard count
// regardless of worker count. Everything is booked at a join, a segment
// completion or a leave, the only events a session has.
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
	// Events counts every join, segment completion and leave:
	// Joined + Segments + Finished.
	Events int
	// BatchLeaders and BatchReplays decompose the member steps taken:
	// cohort steps, each one Stepper.Step of a cohort's shared State, and
	// the further member steps each such step served. Every join steps once
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

// shard is one independent event queue plus the structure-of-arrays state
// columns for the sessions it owns (global session i lives on shard
// i % Shards at local slot i / Shards). A shard is advanced by at most one
// goroutine at a time; its stepper and heap are never shared.
type shard struct {
	eng     *Engine
	stepper *sim.Stepper
	heap    Heap

	// Per-slot columns. cohort indexes the slot's cohort in cohorts.
	cohort []int32
	leave  []int32
	// flight is the per-slot black-box column, nil when Config.Flight is
	// unset; unsampled slots hold nil sessions.
	flight []*obs.FlightSession

	// cohorts holds one entry per distinct (User, Net, JoinSec) among the
	// shard's sessions.
	cohorts []cohort

	// joins is the shard's join schedule, sorted by (time, spec order), and
	// joinPos the next unjoined session. The whole wave is known at
	// construction, so it never touches the heap: a million-session fleet
	// starts with an empty heap instead of a million-entry one, and each
	// join costs a cursor bump instead of an O(log n) pop. Joins order
	// before heap events at the same timestamp — exactly the order the
	// heap gave them when they were pushed first with the lowest ids.
	joins   []joinEv
	joinPos int

	// arena bump-allocates cohort states in chunks, so binding one costs
	// 1/256th of an allocation instead of one. Chunks are reclaimed
	// wholesale once every cohort living in them has left.
	arena    []sim.State
	arenaPos int

	// run numbers the same-(time, kind) runs advanceRun has processed, and
	// runMembers holds the stepping members of the current one in pop
	// order. Reused across runs.
	run        uint64
	runMembers []runMember

	led Ledger
	err error
}

// cohort is the shared state of a shard's sessions with one (User, Net,
// JoinSec). On a bandwidth trace a sim.State is a deterministic function of
// its viewer, its trace and the steps it has taken: binding seeds it from
// the trace alone, a step reads only the State, the stepper's (catalogue,
// config) and those traces, and only a step writes it. Members join in one
// run and take their steps at the same virtual times, so each member's own
// State would equal the cohort's, and one State stepped once per run serves
// them all, bit for bit. A member that leaves settles from the State before
// the cohort steps on.
type cohort struct {
	// state is nil before the first member joins and after the last leaves.
	state *sim.State
	// live counts the members that have joined and not yet left.
	live int
	// run is the run in which state last stepped, and info that step: the
	// download every live member has pending.
	run  uint64
	info sim.StepInfo
}

// runMember is a stepping member of a same-(time, kind) run.
type runMember struct {
	session int
	slot    int
}

// joinEv is one entry of a shard's static join schedule.
type joinEv struct {
	time    float64
	session int
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
	cfg     Config
	specs   []SessionSpec
	shards  []*shard
	results []*sim.Result
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

// New builds an engine over the given session population. Construction is
// cheap per session (join events only); a cohort's state is allocated when
// its first member joins.
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
		reg:     reg,
	}
	e.registerMetrics()
	for si := range e.shards {
		// One stepper per shard: steppers carry mutable planning scratch and
		// must not be shared, but every copy is built from the same
		// (catalogue, config) pair so the math is identical on any shard.
		stepper, err := sim.NewStepper(cfg.Catalog, cfg.Sim)
		if err != nil {
			return nil, err
		}
		n := (len(specs) - si + cfg.Shards - 1) / cfg.Shards
		sh := &shard{
			eng:     e,
			stepper: stepper,
			cohort:  make([]int32, n),
			leave:   make([]int32, n),
		}
		if cfg.Flight != nil {
			sh.flight = make([]*obs.FlightSession, n)
		}
		e.shards[si] = sh
	}
	// JoinSec compares by value: +0 and −0 join in one run.
	type cohortKey struct {
		shard int
		user  *headtrace.Trace
		net   *lte.Trace
		join  float64
	}
	cohorts := make(map[cohortKey]int32)
	for i, spec := range specs {
		sh := e.shards[i%cfg.Shards]
		slot := i / cfg.Shards
		key := cohortKey{i % cfg.Shards, spec.User, spec.Net, spec.JoinSec}
		id, ok := cohorts[key]
		if !ok {
			id = int32(len(sh.cohorts))
			sh.cohorts = append(sh.cohorts, cohort{})
			cohorts[key] = id
		}
		sh.cohort[slot] = id
		sh.leave[slot] = int32(spec.LeaveAfterSegments)
		sh.joins = append(sh.joins, joinEv{time: spec.JoinSec, session: i})
	}
	for _, sh := range e.shards {
		// Ordering by (time, session) equals a stable sort by time: appends
		// ran in ascending session order, so this keeps the order the heap's
		// push-sequence ids used to impose on equal join times.
		slices.SortFunc(sh.joins, func(a, b joinEv) int {
			if a.time != b.time {
				return cmp.Compare(a.time, b.time)
			}
			return cmp.Compare(a.session, b.session)
		})
		// A live session holds exactly one heap event, its next completion;
		// reserving one slot per session up front avoids append-doubling
		// memmoves during the join wave.
		sh.heap.Reserve(len(sh.joins))
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
// join from the static schedule or a segment completion from the heap, and
// the events sharing one virtual timestamp and kind are processed together
// as one run.
func (sh *shard) advance(until float64) error {
	if sh.err != nil {
		return sh.err
	}
	for {
		// Next occurrence: the join cursor merges with the heap top. Joins win
		// ties — they carried the lowest push-sequence ids back when they
		// lived on the heap, so this keeps the old pop order exactly.
		ev, hok := sh.heap.Peek()
		if j := sh.joinPos; j < len(sh.joins) && (!hok || sh.joins[j].time <= ev.Time) {
			ev = Event{Time: sh.joins[j].time, Kind: KindJoin}
		} else if !hok {
			return nil
		}
		if ev.Time > until {
			return nil
		}
		if err := sh.advanceRun(ev.Time, ev.Kind); err != nil {
			sh.err = fmt.Errorf("fleet: %s run at t=%.3f: %w", ev.Kind, ev.Time, err)
			return sh.err
		}
	}
}

// advanceRun processes the maximal run of events with timestamp t and the
// given kind, in two phases:
//
//  1. Take the whole run. Run members were all pushed before anything a
//     member's handling could push at time t, so handling them one at a
//     time would pop exactly this run first; taking it up front changes
//     nothing. Joins bind their cohort's state on its first member;
//     completions book their segment and stall, and a member that leaves
//     settles here, before its cohort's state steps on.
//  2. Walk the stepping members in pop order. A member's cohort steps at its
//     first member of the run, and every member pushes its next completion,
//     so the heap's insertion sequence, and with it every future tie-break
//     and the ledger's float summation order, is the one-at-a-time order.
func (sh *shard) advanceRun(t float64, kind Kind) error {
	sh.run++
	sh.runMembers = sh.runMembers[:0]

	// Phase 1: pop the run. Joins drain from the static schedule cursor (all
	// same-time joins precede any heap event at that time, so the run is
	// exactly the cursor's same-time prefix); completions pop from the heap.
	switch kind {
	case KindJoin:
		for sh.joinPos < len(sh.joins) && sh.joins[sh.joinPos].time == t {
			session := sh.joins[sh.joinPos].session
			sh.joinPos++
			slot := sh.slot(session)
			if err := sh.join(t, slot, session); err != nil {
				return err
			}
			sh.runMembers = append(sh.runMembers, runMember{session: session, slot: slot})
		}
	case KindSegmentComplete:
		for {
			ev, ok := sh.heap.Peek()
			if !ok || ev.Time != t {
				break
			}
			sh.heap.Pop()
			slot := sh.slot(ev.Session)
			if sh.complete(t, slot, ev.Session) {
				sh.runMembers = append(sh.runMembers, runMember{session: ev.Session, slot: slot})
			} else if err := sh.finish(t, slot, ev.Session); err != nil {
				return err
			}
		}
	}

	// Phase 2: step each cohort once and reschedule every member.
	for _, m := range sh.runMembers {
		c := &sh.cohorts[sh.cohort[m.slot]]
		if c.run == sh.run {
			sh.led.BatchReplays++
		} else {
			info, err := sh.stepper.Step(c.state)
			if err != nil {
				return fmt.Errorf("session %d: %w", m.session, err)
			}
			c.run, c.info = sh.run, info
			sh.led.BatchLeaders++
		}
		sh.heap.Push(t+c.info.WaitSec+c.info.DownloadSec, KindSegmentComplete, m.session)
	}
	return nil
}

func (sh *shard) slot(session int) int { return session / len(sh.eng.shards) }

// join adds a joining session to its cohort, binding the cohort's state on
// its first member, and books the join.
func (sh *shard) join(t float64, slot, session int) error {
	c := &sh.cohorts[sh.cohort[slot]]
	if c.state == nil {
		spec := sh.eng.specs[session]
		state := sh.allocState()
		if err := sh.stepper.InitState(state, spec.User, spec.Net); err != nil {
			return err
		}
		c.state = state
	}
	c.live++
	sh.led.Joined++
	sh.flightJoin(t, slot, session)
	return nil
}

// complete books a finished segment download, its stall included, and
// reports whether the session steps again; false means it leaves (catalogue
// exhausted or its LeaveAfterSegments reached).
func (sh *shard) complete(t float64, slot, session int) bool {
	sh.led.Segments++
	c := &sh.cohorts[sh.cohort[slot]]
	info := c.info
	if info.StallSec > 0 {
		sh.led.Stalls++
		sh.led.StallSec += info.StallSec
	}
	sh.flightDownload(t, slot, c.state, info)
	return !info.Done && (sh.leave[slot] == 0 || c.state.Segments() < int(sh.leave[slot]))
}

// flightJoin passes a joining session through the flight recorder's sampling
// gate and records its join event. A no-op without Config.Flight.
func (sh *shard) flightJoin(t float64, slot, session int) {
	if sh.flight == nil {
		return
	}
	fsess := sh.eng.cfg.Flight.SessionN(session)
	sh.flight[slot] = fsess
	if fsess != nil {
		fsess.Record(obs.FlightEvent{TimeSec: t, Kind: obs.FlightJoin, Seg: -1})
	}
}

// flightDownload records one completed segment into the session's black
// box: its stall, if it rebuffered, and its download. A no-op for unsampled
// sessions.
func (sh *shard) flightDownload(t float64, slot int, state *sim.State, info sim.StepInfo) {
	if sh.flight == nil {
		return
	}
	fsess := sh.flight[slot]
	if fsess == nil || state == nil {
		return
	}
	fsess.RecordSegment(t, info.Segment, info.DownloadSec, info.StallSec, state.EstimateBps(), false)
}

// finish retires a session that leaves at time t and settles its
// accounting from its cohort's state, which it releases with the last
// member.
func (sh *shard) finish(t float64, slot, session int) error {
	c := &sh.cohorts[sh.cohort[slot]]
	res, err := sh.stepper.Finish(c.state)
	if err != nil {
		return fmt.Errorf("session %d: %w", session, err)
	}
	// Distinct indices per session: shards never write the same slot.
	sh.eng.results[session] = res
	sh.led.Finished++
	sh.led.EnergyMJ += res.Energy.Total()
	sh.led.QoESum += res.QoE.MeanQ
	sh.led.Bits += res.BitsDownloaded
	sh.led.Emergencies += res.Emergencies
	if sh.flight != nil {
		if fsess := sh.flight[slot]; fsess != nil {
			fsess.Record(obs.FlightEvent{TimeSec: t, Kind: obs.FlightLeave, Seg: -1,
				EnergyMJ: res.Energy.Total(), QoE: res.QoE.MeanQ})
			fsess.Close()
			sh.flight[slot] = nil
		}
	}
	c.live--
	if c.live == 0 {
		c.state = nil
	}
	return nil
}
