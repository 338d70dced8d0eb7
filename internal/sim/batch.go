package sim

import (
	"fmt"
	"math"

	"ptile360/internal/abr"
	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/qoe"
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
//     raw words: (user, net, next segment) identity plus the exact bits of
//     the wall clock, buffer, previous-choice memory, and the full
//     bandwidth-estimator window (predict.StateBits).
//   - Sessions are grouped by a quantized bucket hash of those words. The
//     bucket is only a rendezvous: membership in a group always requires
//     word-for-word equality with the group leader — the exactness guard.
//     A session whose words match no leader becomes a new leader; a session
//     that cannot be fingerprinted falls back to the scalar Step.
//   - The group leader runs the ordinary scalar step (plan build, MPC DP,
//     download integration, energy/QoE evaluation), recording the computed
//     values as a stepDelta. Followers replay the delta: the same mutation
//     sequence with the same addends applied to their own accounting sums.
//
// Replay is bit-identical to the scalar path by construction. Every value a
// scalar step would compute is a deterministic function of state the
// fingerprint pins exactly, so the leader's captured values are the very
// values the follower's own step would have produced; applying them in the
// same order performs the same floating-point operations. Nothing is
// re-associated, re-ordered, or approximated — which is why the shared
// result survives Float64bits comparison across schemes, seeds, and worker
// counts (see the differential tests here and in internal/fleet).
//
// Quantization (the bucket-hash truncation) affects only how candidates
// rendezvous, never what is shared; BatchOptions.NoQuant switches to
// full-bit hashing with identical results.

// stepDelta captures what one scalar step computed, so a decision-identical
// follower can apply the same mutations without re-planning.
type stepDelta struct {
	info         StepInfo
	chosen       abr.OptionMeta
	emergency    bool
	downloadSec  float64
	measuredRate float64
	energy       power.SegmentEnergy
	q0           float64
	hit          bool
	fromPtile    bool
	bd           qoe.Breakdown
	trace        SegmentTrace
}

// BatchStats reports how one StepBatch call decomposed its input.
type BatchStats struct {
	// Leaders counts sessions that ran the full scalar step for their group.
	Leaders int
	// Replays counts sessions resolved by delta replay against a leader.
	Replays int
	// Fallbacks counts sessions stepped scalar because their state could not
	// be fingerprinted (estimator without predict.StateBits).
	Fallbacks int
}

// BatchScratch is the reusable workspace of StepBatch: signature storage and
// the group table. One scratch serves one stepper; like the stepper it must
// not be shared by concurrent goroutines.
type BatchScratch struct {
	noQuant bool
	words   []uint64
	groups  []batchGroup
	table   map[batchKey]int32
}

// batchKey is the group rendezvous: shared-trace identity plus the bucket
// hash of the residual-state words.
type batchKey struct {
	user *headtrace.Trace
	net  *lte.Trace
	seg  int
	hash uint64
}

// batchGroup is one leader's signature (words[off:off+n]) and captured
// delta; groups whose keys collide chain through next.
type batchGroup struct {
	off, n int32
	next   int32
	delta  stepDelta
}

// BatchOptions tunes StepBatch grouping.
type BatchOptions struct {
	// NoQuant hashes the full signature words instead of the quantized
	// (buffer, rate) bucket form. Grouping decisions — and therefore results
	// — are identical either way (the exact word comparison is always the
	// arbiter); this knob exists for the quantization-on/off differential
	// tests and for diagnosing bucket-collision pathologies.
	NoQuant bool
}

// NewBatchScratch returns an empty batch workspace.
func NewBatchScratch(opts BatchOptions) *BatchScratch {
	return &BatchScratch{
		noQuant: opts.NoQuant,
		table:   make(map[batchKey]int32),
	}
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
// the step reads besides the shared (stepper, user trace, net trace, segment
// index) identity carried in batchKey. ok is false when the bandwidth
// estimator does not expose its state (no predict.StateBits).
func appendSigWords(dst []uint64, state *State) (_ []uint64, ok bool) {
	if batchFingerprintDisabled {
		return dst, false
	}
	// Packet-level sessions carry per-session link state (queue backlog,
	// loss RNG) outside the fingerprint; batchKey's net pointer is nil for
	// all of them, so two distinct links would collide. Scalar-only.
	if state.pnet != nil {
		return dst, false
	}
	sb, fits := state.bw.(predict.StateBits)
	if !fits {
		return dst, false
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
	return sb.AppendStateBits(dst), true
}

// sigHash folds the signature words into the bucket hash. In quantized mode
// the low 20 mantissa bits of each word are dropped first, so states that
// differ only microscopically still rendezvous in one bucket and settle
// membership by the exact comparison; NoQuant hashes full words.
func sigHash(words []uint64, noQuant bool) uint64 {
	h := uint64(1469598103934665603)
	for _, w := range words {
		if !noQuant {
			w >>= 20
		}
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
		words, ok := appendSigWords(sc.words, state)
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
		key := batchKey{user: state.user, net: state.net, seg: state.nextSeg, hash: sigHash(sig, sc.noQuant)}

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
		if seen && gi >= 0 {
			// Follower: replay the leader's delta. Its signature words are
			// no longer needed.
			sc.words = sc.words[:base]
			info, err := st.replay(state, &sc.groups[gi].delta)
			if err != nil {
				return stats, err
			}
			infos[i] = info
			stats.Replays++
			continue
		}

		// Leader: run the scalar step, recording the delta for followers.
		sc.groups = append(sc.groups, batchGroup{off: int32(base), n: int32(len(sig)), next: -1})
		ni := int32(len(sc.groups) - 1)
		if tail >= 0 {
			sc.groups[tail].next = ni
		} else {
			sc.table[key] = ni
		}
		info, err := st.stepRecorded(state, &sc.groups[ni].delta)
		if err != nil {
			return stats, err
		}
		infos[i] = info
		stats.Leaders++
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

// stepRecorded is Step with delta capture enabled.
func (st *Stepper) stepRecorded(state *State, d *stepDelta) (StepInfo, error) {
	if state.nextSeg >= len(st.s.cat.Content) {
		return StepInfo{}, fmt.Errorf("sim: session already streamed all %d segments", len(st.s.cat.Content))
	}
	s := &st.s
	s.attach(state)
	s.rec = d
	info, err := s.step(state)
	s.rec = nil
	s.detach(state)
	return info, err
}

// replay applies a leader's captured step to a follower whose
// decision-relevant state is word-identical to the leader's. Each mutation
// below is the scalar step's mutation with the same operands in the same
// order, applied to the follower's own accounting — so the follower ends in
// exactly the state its own scalar step would have produced.
func (st *Stepper) replay(state *State, d *stepDelta) (StepInfo, error) {
	cfg := &st.s.cfg
	k := state.nextSeg

	// Wait rule, on state the signature pinned equal to the leader's.
	if dt := state.buffer - cfg.BufferCapSec; dt > 0 {
		state.tWall += dt
		state.buffer -= dt
	}
	if d.emergency {
		state.emergencies++
	}
	state.prevChoice = d.chosen.Option
	state.hasPrev = true

	state.tWall += d.downloadSec
	if err := state.bw.Observe(d.measuredRate); err != nil {
		return StepInfo{}, err
	}
	state.buffer = math.Max(state.buffer-d.downloadSec, 0) + cfg.SegmentSec

	state.energy.Tx += d.energy.Tx
	state.energy.Decode += d.energy.Decode
	state.energy.Render += d.energy.Render

	if d.hit {
		state.viewportHits++
	}
	state.acc.Add(d.bd)
	state.prevQ0 = d.q0
	state.hasPrevQ0 = true

	state.bits += d.chosen.SizeBits
	state.qualitySum += float64(d.chosen.Quality)
	state.frameRateSum += d.chosen.FrameRate
	if d.fromPtile {
		state.ptileSegments++
	}
	if cfg.RecordSegments {
		state.perSegment = append(state.perSegment, d.trace)
	}
	state.segments++
	state.nextSeg = k + 1
	return d.info, nil
}
