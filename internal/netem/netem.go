// Package netem is a deterministic, seeded, in-process packet-level network
// emulator: per-link capacity, propagation delay, queue depth, random loss,
// and competing-flow cross traffic, all driven by time-indexed schedules
// (step drops, linear ramps, on/off cross flows).
//
// The segment-granularity Markov process in internal/lte draws one
// throughput number per second; everything a real mobile link does *within*
// a download — standing queues (bufferbloat), delay growth under competing
// flows, capacity collapse mid-transfer — is invisible to it. netem models
// the bottleneck itself: app packets and fluid cross traffic share one
// droptail FIFO queue drained at the scheduled capacity, so queuing delay,
// loss, and retransmission emerge from the schedule instead of being
// sampled. The per-packet send/arrival timestamps it produces are exactly
// the signal a delay-gradient bandwidth estimator (predict.DelayGradient)
// needs, which segment-level traces cannot provide.
//
// One surface shapes bytes, plus a pacer:
//
//   - SessionNet: a virtual-time download path over the Link, for the
//     simulator and the httpstream client — bit-deterministic for a fixed
//     (profile, seed), independent of wall clock, goroutine scheduling, and
//     worker counts.
//   - Pacer/PacedWriter: an interval-budget paced sender for the server
//     path, so segment bursts stop building their own bottleneck queue.
//
// Listen is an unshaped in-memory transport (net.Pipe behind a
// net.Listener) that carries an HTTP client/server pair in process; it
// accepts only profiles that shape nothing.
package netem

import (
	"fmt"
	"math"
	"sort"
)

// Params is the link state at one instant.
type Params struct {
	// CapacityBps is the bottleneck service rate in bits/s; 0 means
	// unlimited (no queueing).
	CapacityBps float64
	// RTTSec is the round-trip propagation delay excluding queueing.
	RTTSec float64
	// QueueBytes caps the droptail bottleneck queue; 0 means unbounded
	// (the bufferbloat regime).
	QueueBytes float64
	// LossProb is the i.i.d. end-to-end packet loss probability.
	LossProb float64
	// CrossBps is the fluid competing-flow rate entering the same
	// bottleneck queue.
	CrossBps float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.CapacityBps < 0 || math.IsNaN(p.CapacityBps) || math.IsInf(p.CapacityBps, 0) {
		return fmt.Errorf("netem: bad capacity %g", p.CapacityBps)
	}
	if p.RTTSec < 0 || math.IsNaN(p.RTTSec) || p.RTTSec > 60 {
		return fmt.Errorf("netem: RTT %g outside [0, 60]", p.RTTSec)
	}
	if p.QueueBytes < 0 || math.IsNaN(p.QueueBytes) || math.IsInf(p.QueueBytes, 0) {
		return fmt.Errorf("netem: bad queue depth %g", p.QueueBytes)
	}
	if p.LossProb < 0 || p.LossProb >= 1 || math.IsNaN(p.LossProb) {
		return fmt.Errorf("netem: loss probability %g outside [0, 1)", p.LossProb)
	}
	if p.CrossBps < 0 || math.IsNaN(p.CrossBps) || math.IsInf(p.CrossBps, 0) {
		return fmt.Errorf("netem: bad cross-traffic rate %g", p.CrossBps)
	}
	return nil
}

// Phase is one schedule entry: the link holds (or ramps toward) Params from
// StartSec until the next phase begins.
type Phase struct {
	// StartSec is when the phase begins, relative to the schedule origin.
	StartSec float64
	// Ramp interpolates linearly from the previous phase's parameters to
	// this phase's over [previous.StartSec, StartSec] instead of stepping.
	Ramp bool
	Params
}

// Profile is a named link schedule.
type Profile struct {
	// Name identifies the profile in flags, metrics, and result files.
	Name string
	// Phases is the schedule, ascending by StartSec, first at 0.
	Phases []Phase
	// RepeatSec wraps the schedule clock so sessions longer than the
	// schedule keep evolving; 0 holds the last phase forever.
	RepeatSec float64
	// MTUBytes is the packetization unit; 0 means DefaultMTU.
	MTUBytes int
}

// DefaultMTU is the packetization unit when a profile does not set one.
const DefaultMTU = 1500

// rampTick subdivides ramp phases into constant-parameter steps, keeping the
// queue integration and service solver exactly piecewise-constant.
const rampTick = 0.1

// MTU returns the profile's packetization unit.
func (p *Profile) MTU() int {
	if p.MTUBytes <= 0 {
		return DefaultMTU
	}
	return p.MTUBytes
}

// Validate reports whether the profile is usable.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("netem: unnamed profile")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("netem: profile %q has no phases", p.Name)
	}
	if p.Phases[0].StartSec != 0 {
		return fmt.Errorf("netem: profile %q first phase starts at %g, want 0", p.Name, p.Phases[0].StartSec)
	}
	if p.Phases[0].Ramp {
		return fmt.Errorf("netem: profile %q first phase cannot ramp", p.Name)
	}
	prev := -1.0
	for i, ph := range p.Phases {
		if math.IsNaN(ph.StartSec) || math.IsInf(ph.StartSec, 0) || ph.StartSec < 0 {
			return fmt.Errorf("netem: profile %q phase %d bad start %g", p.Name, i, ph.StartSec)
		}
		if ph.StartSec <= prev {
			return fmt.Errorf("netem: profile %q phase %d start %g not ascending", p.Name, i, ph.StartSec)
		}
		prev = ph.StartSec
		if err := ph.Params.Validate(); err != nil {
			return fmt.Errorf("netem: profile %q phase %d: %w", p.Name, i, err)
		}
	}
	if p.RepeatSec < 0 || math.IsNaN(p.RepeatSec) || math.IsInf(p.RepeatSec, 0) {
		return fmt.Errorf("netem: profile %q bad repeat %g", p.Name, p.RepeatSec)
	}
	if p.RepeatSec > 0 && p.RepeatSec <= p.Phases[len(p.Phases)-1].StartSec {
		return fmt.Errorf("netem: profile %q repeat %g not past last phase start %g",
			p.Name, p.RepeatSec, p.Phases[len(p.Phases)-1].StartSec)
	}
	if p.MTUBytes < 0 || p.MTUBytes > 65536 {
		return fmt.Errorf("netem: profile %q MTU %d outside [0, 65536]", p.Name, p.MTUBytes)
	}
	return nil
}

// schedule is a compiled profile: a piecewise-constant parameter timeline
// (ramps pre-subdivided at rampTick), binary-searchable by time.
type schedule struct {
	starts    []float64
	params    []Params
	repeatSec float64
}

// compile flattens the profile into constant steps. Validate must have
// passed.
func (p *Profile) compile() *schedule {
	s := &schedule{repeatSec: p.RepeatSec}
	for i, ph := range p.Phases {
		if !ph.Ramp || i == 0 {
			s.starts = append(s.starts, ph.StartSec)
			s.params = append(s.params, ph.Params)
			continue
		}
		from := p.Phases[i-1]
		span := ph.StartSec - from.StartSec
		steps := int(math.Ceil(span / rampTick))
		if steps < 1 {
			steps = 1
		}
		for k := 1; k <= steps; k++ {
			frac := float64(k) / float64(steps)
			t := from.StartSec + frac*span
			s.starts = append(s.starts, t)
			s.params = append(s.params, lerpParams(from.Params, ph.Params, frac))
		}
	}
	return s
}

func lerpParams(a, b Params, frac float64) Params {
	l := func(x, y float64) float64 { return x + (y-x)*frac }
	return Params{
		CapacityBps: l(a.CapacityBps, b.CapacityBps),
		RTTSec:      l(a.RTTSec, b.RTTSec),
		QueueBytes:  l(a.QueueBytes, b.QueueBytes),
		LossProb:    l(a.LossProb, b.LossProb),
		CrossBps:    l(a.CrossBps, b.CrossBps),
	}
}

// wrap maps absolute time onto the schedule clock.
func (s *schedule) wrap(t float64) float64 {
	if t < 0 {
		return 0
	}
	if s.repeatSec > 0 && t >= s.repeatSec {
		t = math.Mod(t, s.repeatSec)
	}
	return t
}

// at returns the parameters in force at absolute time t.
func (s *schedule) at(t float64) Params {
	w := s.wrap(t)
	// Index of the last start <= w.
	i := sort.SearchFloat64s(s.starts, w)
	if i == len(s.starts) || s.starts[i] > w {
		i--
	}
	if i < 0 {
		i = 0
	}
	return s.params[i]
}

// nextBoundary returns the first schedule breakpoint strictly after absolute
// time t, or +Inf when the schedule holds its last phase forever.
func (s *schedule) nextBoundary(t float64) float64 {
	if s.repeatSec > 0 {
		base := math.Floor(t/s.repeatSec) * s.repeatSec
		w := t - base
		i := sort.SearchFloat64s(s.starts, w)
		for i < len(s.starts) && s.starts[i] <= w {
			i++
		}
		// base+start can round back onto t; skip such candidates so the
		// boundary is strictly after (advance/serviceDone must not spin).
		for ; i < len(s.starts); i++ {
			if cand := base + s.starts[i]; cand > t {
				return cand
			}
		}
		if cand := base + s.repeatSec; cand > t {
			return cand
		}
		return base + 2*s.repeatSec
	}
	i := sort.SearchFloat64s(s.starts, t)
	for i < len(s.starts) && s.starts[i] <= t {
		i++
	}
	if i < len(s.starts) {
		return s.starts[i]
	}
	return math.Inf(1)
}
