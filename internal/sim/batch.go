package sim

import (
	"fmt"

	"ptile360/internal/headtrace"
)

// This file is the batched form of Step. A fleet advancing N sessions at one
// virtual tick repeats the same planning work for every session whose
// decision inputs coincide — and at scale they coincide massively: sessions
// replaying the same (viewer trace, bandwidth trace) pair from the same join
// offset stay in bit-identical lockstep forever (a property the fleet
// differential tests already pin), so a 100k-session fleet built from a
// trace pool contains only dozens of distinct trajectories.
//
// StepBatch exploits that by identity, without reading session state:
//
//   - A session on a bandwidth trace is a deterministic function of its
//     viewer trace, its bandwidth trace and the steps it has taken. bind
//     seeds it from the trace alone; compute's result depends only on the
//     State, the stepper's (catalogue, config) and those traces; a failed
//     Step leaves the State as it was; and apply is the only code that
//     writes it. Two such sessions stepped under one (catalogue, config)
//     with the same (viewer, trace, next segment) hold bit-identical State.
//   - Sessions are grouped on that key. The first session of a group is its
//     leader: it computes the step once into the group's stepDelta (plan
//     build, MPC DP, download integration, energy/QoE evaluation), and every
//     member, the leader included, applies that delta to its own state.
//   - A session on any other link (a packet-level path, an HTTP client)
//     carries link state — queues, a loss RNG, a network — outside that key,
//     so it steps scalar.
//
// This is bit-identical to the scalar path by construction: a follower's
// own compute would produce the leader's delta, and apply is the same
// function Step runs. Nothing is re-associated, re-ordered, or approximated
// — which is why the shared result survives Float64bits comparison across
// schemes, seeds, and worker counts (see the differential tests here and in
// internal/fleet).

// BatchStats reports how one StepBatch call decomposed its input.
type BatchStats struct {
	// Leaders counts sessions that computed the step for their group.
	Leaders int
	// Replays counts sessions that applied a leader's computed step.
	Replays int
	// Fallbacks counts sessions stepped scalar because their link is not a
	// bandwidth trace.
	Fallbacks int
}

// batchKey is a group's identity: a session's viewer trace, bandwidth trace
// and next segment, which together determine its State.
type batchKey struct {
	user *headtrace.Trace
	link *traceLink
	seg  int
}

// StepBatch advances every session in states by one segment, sharing the
// planning work across sessions with the same (viewer, bandwidth trace,
// next segment), and writes each session's StepInfo into infos. It is
// bit-identical to calling Step on each state in order. Sessions may be
// heterogeneous (different traces, segments, progress). On error the batch
// aborts with some sessions already advanced — the same partial-progress
// contract as a scalar loop that errors midway.
func (st *Stepper) StepBatch(states []*State, infos []StepInfo) (BatchStats, error) {
	var stats BatchStats
	if len(states) != len(infos) {
		return stats, fmt.Errorf("sim: StepBatch infos length %d != states %d", len(infos), len(states))
	}
	clear(st.groups)
	st.deltas = st.deltas[:0]
	for i, state := range states {
		tl, isTrace := state.link.(*traceLink)
		if !isTrace {
			info, err := st.Step(state)
			if err != nil {
				return stats, err
			}
			infos[i] = info
			stats.Fallbacks++
			continue
		}
		key := batchKey{user: state.user, link: tl, seg: state.nextSeg}
		gi, follower := st.groups[key]
		if !follower {
			gi = int32(len(st.deltas))
			st.deltas = append(st.deltas, stepDelta{})
			if err := st.s.compute(state, &st.deltas[gi]); err != nil {
				return stats, err
			}
			st.groups[key] = gi
		}
		info, err := st.s.apply(state, &st.deltas[gi])
		if err != nil {
			return stats, err
		}
		infos[i] = info
		if follower {
			stats.Replays++
		} else {
			stats.Leaders++
		}
	}
	return stats, nil
}
