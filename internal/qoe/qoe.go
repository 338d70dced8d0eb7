// Package qoe implements the paper's session QoE model (Eq. 2):
// Q = Q₀ − ω_v·I_v − ω_r·I_r, combining perceived quality, quality
// variation between consecutive segments, and rebuffering impairment.
package qoe

import "fmt"

// Weights are the impairment weights (ω_v, ω_r); the paper evaluates with
// (1, 1) (Section V-A).
type Weights struct {
	Variation, Rebuffer float64
}

// DefaultWeights returns the paper's (1, 1).
func DefaultWeights() Weights { return Weights{Variation: 1, Rebuffer: 1} }

// Validate reports whether the weights are usable.
func (w Weights) Validate() error {
	if w.Variation < 0 || w.Rebuffer < 0 {
		return fmt.Errorf("qoe: negative weight %+v", w)
	}
	return nil
}

// SegmentInput describes one downloaded segment for QoE accounting.
type SegmentInput struct {
	// Q0 is the segment's perceived quality (Eq. 3 × frame-rate factor).
	Q0 float64
	// PrevQ0 is the previous segment's perceived quality; the first segment
	// of a session should pass its own Q0 (zero variation).
	PrevQ0 float64
	// SizeBits is the segment download size S_k.
	SizeBits float64
	// RateBps is the download throughput R_k.
	RateBps float64
	// BufferSec is the buffer level B_k (seconds of video) when the request
	// was issued.
	BufferSec float64
	// WastedSec is the time failed download attempts burned before this
	// one; it drains the buffer ahead of the download.
	WastedSec float64
}

// Breakdown decomposes one segment's QoE.
type Breakdown struct {
	// Q0 is the perceived quality.
	Q0 float64
	// Variation is the quality-variation impairment I_v = |Q0 − PrevQ0|.
	Variation float64
	// Rebuffer is the rebuffering impairment
	// I_r = max(W + S/R − B, 0)/B · Q0, where W is the wasted time.
	Rebuffer float64
	// StallSec is the stall duration max(W + S/R − B, 0) in seconds.
	StallSec float64
	// Q is the weighted total Q0 − ω_v·I_v − ω_r·I_r.
	Q float64
}

// Segment evaluates Eq. 2 for one segment.
func Segment(in SegmentInput, w Weights) (Breakdown, error) {
	if err := w.Validate(); err != nil {
		return Breakdown{}, err
	}
	if in.SizeBits < 0 {
		return Breakdown{}, fmt.Errorf("qoe: negative size %g", in.SizeBits)
	}
	if in.RateBps <= 0 {
		return Breakdown{}, fmt.Errorf("qoe: non-positive rate %g", in.RateBps)
	}
	if in.BufferSec < 0 {
		return Breakdown{}, fmt.Errorf("qoe: negative buffer %g", in.BufferSec)
	}
	if in.WastedSec < 0 {
		return Breakdown{}, fmt.Errorf("qoe: negative wasted time %g", in.WastedSec)
	}
	b := Breakdown{Q0: in.Q0}
	b.Variation = in.Q0 - in.PrevQ0
	if b.Variation < 0 {
		b.Variation = -b.Variation
	}
	stall := in.WastedSec + in.SizeBits/in.RateBps - in.BufferSec
	if stall > 0 {
		b.StallSec = stall
		// Guard the division: an empty buffer with any stall is a hard
		// rebuffer; score it as the full quality lost.
		if in.BufferSec > 0 {
			b.Rebuffer = stall / in.BufferSec * in.Q0
		} else {
			b.Rebuffer = in.Q0
		}
	}
	b.Q = b.Q0 - w.Variation*b.Variation - w.Rebuffer*b.Rebuffer
	return b, nil
}

// SessionSummary aggregates per-segment breakdowns.
type SessionSummary struct {
	// MeanQ is the session QoE: the mean of per-segment Q.
	MeanQ float64
	// MeanQ0, MeanVariation, MeanRebuffer are the Fig. 11d metric means.
	MeanQ0, MeanVariation, MeanRebuffer float64
	// StallSec is the total stall time.
	StallSec float64
	// Stalls is the number of segments with a stall.
	Stalls int
	// Segments is the number of segments aggregated.
	Segments int
}

// Summarize aggregates breakdowns into a session summary.
func Summarize(segments []Breakdown) (SessionSummary, error) {
	var a Accumulator
	for _, b := range segments {
		a.Add(b)
	}
	return a.Summary()
}

// Accumulator aggregates per-segment breakdowns incrementally, so a
// long-running (or fleet-scale) session need not retain its breakdown
// series. Adding breakdowns in segment order performs exactly the additions
// of Summarize in the same order, so Summary is bit-identical to
// Summarize over the equivalent slice.
type Accumulator struct {
	sumQ, sumQ0, sumVariation, sumRebuffer, stallSec float64
	stalls, segments                                 int
}

// Add folds one segment breakdown into the running sums.
func (a *Accumulator) Add(b Breakdown) {
	a.sumQ += b.Q
	a.sumQ0 += b.Q0
	a.sumVariation += b.Variation
	a.sumRebuffer += b.Rebuffer
	a.stallSec += b.StallSec
	if b.StallSec > 0 {
		a.stalls++
	}
	a.segments++
}

// Segments returns the number of breakdowns added so far.
func (a *Accumulator) Segments() int { return a.segments }

// Summary finalizes the session summary. It fails on an empty accumulator,
// matching Summarize on an empty slice.
func (a *Accumulator) Summary() (SessionSummary, error) {
	if a.segments == 0 {
		return SessionSummary{}, fmt.Errorf("qoe: no segments to summarize")
	}
	n := float64(a.segments)
	return SessionSummary{
		MeanQ:         a.sumQ / n,
		MeanQ0:        a.sumQ0 / n,
		MeanVariation: a.sumVariation / n,
		MeanRebuffer:  a.sumRebuffer / n,
		StallSec:      a.stallSec,
		Stalls:        a.stalls,
		Segments:      a.segments,
	}, nil
}
