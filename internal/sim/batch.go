package sim

import (
	"fmt"
	"math"

	"ptile360/internal/headtrace"
	"ptile360/internal/predict"
)

// This file is the batched form of Step. A fleet advancing N sessions at one
// virtual tick repeats the same planning work for every session whose
// decision inputs coincide — and at scale they coincide massively: sessions
// replaying the same (viewer trace, bandwidth trace) pair from the same join
// offset stay in bit-identical lockstep forever (a property the fleet
// differential tests already pin), so a 100k-session fleet built from a
// trace pool contains only dozens of distinct trajectories.
//
// StepBatch exploits that structurally, not statistically:
//
//   - Each session's decision-relevant residual state is fingerprinted into
//     raw words: (user, trace, next segment) identity plus the exact bits of
//     the wall clock, buffer, previous-choice memory, and the full
//     bandwidth-estimator window (predict.StateBits).
//   - Sessions are grouped by word-for-word equality of those words; a hash
//     of the words only routes the lookup. A session whose words match no
//     group starts a new one as its leader; a session that cannot be
//     fingerprinted falls back to the scalar Step.
//   - The leader computes the step once into the group's stepDelta (plan
//     build, MPC DP, download integration, energy/QoE evaluation), and every
//     member, the leader included, applies that delta to its own state.
//
// This is bit-identical to the scalar path by construction. compute reads
// only state the fingerprint pins exactly, so a follower's own compute would
// produce the leader's delta, and apply is the same function Step runs.
// Nothing is re-associated, re-ordered, or approximated — which is why the
// shared result survives Float64bits comparison across schemes, seeds, and
// worker counts (see the differential tests here and in internal/fleet).

// BatchStats reports how one StepBatch call decomposed its input.
type BatchStats struct {
	// Leaders counts sessions that computed the step for their group.
	Leaders int
	// Replays counts sessions that applied a leader's computed step.
	Replays int
	// Fallbacks counts sessions stepped scalar because their state could not
	// be fingerprinted (a packet-level link, or an estimator without
	// predict.StateBits).
	Fallbacks int
}

// BatchScratch is the reusable workspace of StepBatch: signature storage and
// the group table. One scratch serves one stepper; like the stepper it must
// not be shared by concurrent goroutines.
type BatchScratch struct {
	words  []uint64
	groups []batchGroup
	table  map[batchKey]int32
}

// batchKey is the group rendezvous: shared-trace identity plus the hash of
// the residual-state words.
type batchKey struct {
	user *headtrace.Trace
	link *traceLink
	seg  int
	hash uint64
}

// batchGroup is one leader's signature (words[off:off+n]) and computed
// delta; groups whose keys collide chain through next.
type batchGroup struct {
	off, n int32
	next   int32
	delta  stepDelta
}

// NewBatchScratch returns an empty batch workspace.
func NewBatchScratch() *BatchScratch {
	return &BatchScratch{table: make(map[batchKey]int32)}
}

func (sc *BatchScratch) reset() {
	sc.words = sc.words[:0]
	sc.groups = sc.groups[:0]
	clear(sc.table)
}

// batchFingerprintDisabled forces every session onto the scalar fallback —
// a test hook mirroring disablePlanTables, so the fallback path is
// exercisable end to end.
var batchFingerprintDisabled bool

// appendSigWords appends state's decision-relevant fingerprint: every datum
// compute reads besides the shared (stepper, user trace, bandwidth trace,
// segment index) identity carried in batchKey, which it returns the trace
// of. ok is false when the state cannot be fingerprinted.
func appendSigWords(dst []uint64, state *State) (_ []uint64, _ *traceLink, ok bool) {
	if batchFingerprintDisabled {
		return dst, nil, false
	}
	// A packet-level link carries per-session queue state and a loss RNG
	// outside the fingerprint. Scalar-only.
	tl, isTrace := state.link.(*traceLink)
	if !isTrace {
		return dst, nil, false
	}
	sb, fits := state.bw.(predict.StateBits)
	if !fits {
		return dst, nil, false
	}
	var flags uint64
	if state.hasPrevQ0 {
		flags |= 1
	}
	if state.hasPrev {
		flags |= 2
	}
	dst = append(dst, flags, math.Float64bits(state.tWall), math.Float64bits(state.buffer))
	if state.hasPrevQ0 {
		dst = append(dst, math.Float64bits(state.prevQ0))
	}
	if state.hasPrev {
		dst = append(dst, uint64(state.prevChoice.Quality), math.Float64bits(state.prevChoice.FrameRate))
	}
	return sb.AppendStateBits(dst), tl, true
}

// sigHash folds the signature words into the group-table hash.
func sigHash(words []uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, w := range words {
		h ^= w
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// StepBatch advances every session in states by one segment, sharing the
// planning work across decision-identical sessions, and writes each
// session's StepInfo into infos. It is bit-identical to calling Step on each
// state in order. Sessions may be heterogeneous (different traces, segments,
// progress); only provably identical ones share work. On error the batch
// aborts with some sessions already advanced — the same partial-progress
// contract as a scalar loop that errors midway.
func (st *Stepper) StepBatch(sc *BatchScratch, states []*State, infos []StepInfo) (BatchStats, error) {
	var stats BatchStats
	if len(states) != len(infos) {
		return stats, fmt.Errorf("sim: StepBatch infos length %d != states %d", len(infos), len(states))
	}
	if sc == nil {
		return stats, fmt.Errorf("sim: StepBatch needs a scratch")
	}
	sc.reset()

	for i, state := range states {
		base := len(sc.words)
		words, tl, ok := appendSigWords(sc.words, state)
		if !ok {
			info, err := st.Step(state)
			if err != nil {
				return stats, err
			}
			infos[i] = info
			stats.Fallbacks++
			continue
		}
		sc.words = words
		sig := sc.words[base:]
		key := batchKey{user: state.user, link: tl, seg: state.nextSeg, hash: sigHash(sig)}

		// Probe the bucket; exact word equality decides membership.
		gi, seen := sc.table[key]
		tail := int32(-1)
		for seen {
			g := &sc.groups[gi]
			if wordsEqual(sc.words[g.off:g.off+g.n], sig) {
				break
			}
			if g.next < 0 {
				tail, gi = gi, -1
				break
			}
			gi = g.next
		}
		follower := seen && gi >= 0
		if follower {
			// Its signature words are no longer needed.
			sc.words = sc.words[:base]
		} else {
			// Leader: compute the group's delta.
			sc.groups = append(sc.groups, batchGroup{off: int32(base), n: int32(len(sig)), next: -1})
			gi = int32(len(sc.groups) - 1)
			if tail >= 0 {
				sc.groups[tail].next = gi
			} else {
				sc.table[key] = gi
			}
			if err := st.s.compute(state, &sc.groups[gi].delta); err != nil {
				return stats, err
			}
		}
		info, err := st.s.apply(state, &sc.groups[gi].delta)
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

func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
