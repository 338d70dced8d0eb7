// Package lte provides the network substrate: a synthetic 4G/LTE throughput
// trace generator standing in for the HTTP/2 dataset of van der Hooft et
// al. [27] used in the paper's evaluation, plus the linear scaling operator
// the paper applies to derive its two network conditions (trace 1 = 2 ×
// trace 2; trace 2 averages 3.9 Mbps within [2.3, 8.4] Mbps).
//
// The generator is a bounded Markov-modulated process: throughput follows a
// mean-reverting random walk between congestion regimes, reproducing both
// the slow drift and the sudden drops of drive-test LTE traces.
package lte

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"ptile360/internal/stats"
)

// Trace is a bandwidth time series with a fixed sampling interval.
type Trace struct {
	// IntervalSec is the time between consecutive samples.
	IntervalSec float64
	// Bps holds the throughput samples in bits per second.
	Bps []float64
}

// Validate reports whether the trace is usable.
func (t *Trace) Validate() error {
	if t.IntervalSec <= 0 {
		return fmt.Errorf("lte: non-positive interval %g", t.IntervalSec)
	}
	if len(t.Bps) == 0 {
		return fmt.Errorf("lte: empty trace")
	}
	for i, b := range t.Bps {
		if b <= 0 {
			return fmt.Errorf("lte: non-positive bandwidth %g at sample %d", b, i)
		}
	}
	return nil
}

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 { return float64(len(t.Bps)) * t.IntervalSec }

// At returns the throughput at time ts, wrapping around the trace end so
// sessions longer than the trace keep streaming (standard practice in
// trace-driven ABR evaluation).
func (t *Trace) At(ts float64) float64 {
	if len(t.Bps) == 0 {
		return 0
	}
	if ts < 0 {
		ts = 0
	}
	idx := int(ts/t.IntervalSec) % len(t.Bps)
	return t.Bps[idx]
}

// Scale returns a copy with every sample multiplied by factor — the paper's
// linear scaling used to derive trace 1 from trace 2.
func (t *Trace) Scale(factor float64) (*Trace, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("lte: non-positive scale factor %g", factor)
	}
	out := &Trace{IntervalSec: t.IntervalSec, Bps: make([]float64, len(t.Bps))}
	for i, b := range t.Bps {
		out.Bps[i] = b * factor
	}
	return out, nil
}

// Mean returns the average throughput in bits/s.
func (t *Trace) Mean() float64 { return stats.Mean(t.Bps) }

// DownloadTime integrates the trace to find how long downloading sizeBits
// starting at time startSec takes, honouring bandwidth variation across
// sample boundaries.
func (t *Trace) DownloadTime(sizeBits, startSec float64) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	return t.DownloadTimeTrusted(sizeBits, startSec)
}

// DownloadTimeTrusted is DownloadTime without re-validating the trace on
// every call. Validation walks every sample, which dominates tight download
// loops (a fleet step calls this once per segment per session); callers that
// validated the trace once up front — sim binds traces to sessions through
// Validate — get identical results without the per-call scan. On a trace
// that Validate would reject the behaviour is undefined.
func (t *Trace) DownloadTimeTrusted(sizeBits, startSec float64) (float64, error) {
	if sizeBits < 0 {
		return 0, fmt.Errorf("lte: negative size %g", sizeBits)
	}
	if startSec < 0 {
		return 0, fmt.Errorf("lte: negative start time %g", startSec)
	}
	if sizeBits == 0 {
		return 0, nil
	}
	remaining := sizeBits
	now := startSec
	// Cap the integration at an absurd horizon to guarantee termination.
	deadline := startSec + 1e6
	for now < deadline {
		rate := t.At(now)
		// Time left in the current sample interval.
		intoInterval := now - float64(int(now/t.IntervalSec))*t.IntervalSec
		slice := t.IntervalSec - intoInterval
		canDownload := rate * slice
		if canDownload >= remaining {
			return now + remaining/rate - startSec, nil
		}
		remaining -= canDownload
		now += slice
	}
	return 0, fmt.Errorf("lte: download of %g bits did not finish within horizon", sizeBits)
}

// GeneratorConfig tunes the synthetic LTE trace generator. Defaults target
// the paper's trace 2 statistics.
type GeneratorConfig struct {
	// MeanBps is the long-run average throughput.
	MeanBps float64
	// MinBps and MaxBps bound the process.
	MinBps, MaxBps float64
	// Volatility is the per-step relative standard deviation of the
	// mean-reverting walk.
	Volatility float64
	// Reversion is the pull strength toward the regime mean per step.
	Reversion float64
	// DropRate is the per-sample probability of a sudden congestion drop.
	DropRate float64
	// IntervalSec is the sampling interval.
	IntervalSec float64
}

// DefaultGeneratorConfig returns the trace 2 calibration: 3.9 Mbps average
// within [2.3, 8.4] Mbps.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		MeanBps:     3.9e6,
		MinBps:      2.3e6,
		MaxBps:      8.4e6,
		Volatility:  0.10,
		Reversion:   0.12,
		DropRate:    0.015,
		IntervalSec: 1.0,
	}
}

// Validate reports whether the configuration is usable.
func (c GeneratorConfig) Validate() error {
	if c.MeanBps <= 0 {
		return fmt.Errorf("lte: non-positive mean %g", c.MeanBps)
	}
	if c.MinBps <= 0 || c.MaxBps <= c.MinBps {
		return fmt.Errorf("lte: invalid bounds [%g, %g]", c.MinBps, c.MaxBps)
	}
	if c.MeanBps < c.MinBps || c.MeanBps > c.MaxBps {
		return fmt.Errorf("lte: mean %g outside bounds [%g, %g]", c.MeanBps, c.MinBps, c.MaxBps)
	}
	if c.Volatility < 0 || c.Reversion <= 0 || c.Reversion > 1 {
		return fmt.Errorf("lte: invalid dynamics (vol %g, reversion %g)", c.Volatility, c.Reversion)
	}
	if c.DropRate < 0 || c.DropRate > 1 {
		return fmt.Errorf("lte: drop rate %g outside [0, 1]", c.DropRate)
	}
	if c.IntervalSec <= 0 {
		return fmt.Errorf("lte: non-positive interval %g", c.IntervalSec)
	}
	return nil
}

// Generate produces a trace of n samples.
func Generate(n int, cfg GeneratorConfig, seed int64) (*Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("lte: non-positive sample count %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	out := &Trace{IntervalSec: cfg.IntervalSec, Bps: make([]float64, n)}
	b := cfg.MeanBps
	for i := 0; i < n; i++ {
		b += cfg.Reversion*(cfg.MeanBps-b) + rng.Normal(0, cfg.Volatility*cfg.MeanBps)
		if rng.Float64() < cfg.DropRate {
			// Sudden congestion: fall toward the floor.
			b = cfg.MinBps + 0.2*(b-cfg.MinBps)
		}
		if b < cfg.MinBps {
			b = cfg.MinBps
		}
		if b > cfg.MaxBps {
			b = cfg.MaxBps
		}
		out.Bps[i] = b
	}
	return out, nil
}

// StandardTraces returns the paper's two evaluation conditions: trace 2
// (the base LTE trace) and trace 1 (trace 2 linearly scaled ×2).
func StandardTraces(n int, seed int64) (trace1, trace2 *Trace, err error) {
	trace2, err = Generate(n, DefaultGeneratorConfig(), seed)
	if err != nil {
		return nil, nil, err
	}
	trace1, err = trace2.Scale(2)
	if err != nil {
		return nil, nil, err
	}
	return trace1, trace2, nil
}

// WriteCSV serializes the trace as (t, bps) rows.
func WriteCSV(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"t", "bps"}); err != nil {
		return fmt.Errorf("lte: write header: %w", err)
	}
	for i, b := range t.Bps {
		rec := []string{
			strconv.FormatFloat(float64(i)*t.IntervalSec, 'f', 3, 64),
			strconv.FormatFloat(b, 'f', 0, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("lte: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// Profile names a mobility scenario with distinct LTE dynamics, following
// the drive-test taxonomy of the 4G dataset the paper's trace descends
// from [27].
type Profile int

// Mobility profiles.
const (
	// ProfileStationary is an indoor pedestrian-free link: high mean, low
	// volatility, rare drops.
	ProfileStationary Profile = iota + 1
	// ProfileWalking is the paper's evaluation regime (trace 2 statistics).
	ProfileWalking
	// ProfileDriving has frequent handovers: high volatility and drop rate.
	ProfileDriving
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	switch p {
	case ProfileStationary:
		return "stationary"
	case ProfileWalking:
		return "walking"
	case ProfileDriving:
		return "driving"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// ProfileConfig returns the generator configuration for a mobility profile.
func ProfileConfig(p Profile) (GeneratorConfig, error) {
	switch p {
	case ProfileStationary:
		return GeneratorConfig{
			MeanBps: 7.5e6, MinBps: 5.5e6, MaxBps: 10e6,
			Volatility: 0.04, Reversion: 0.15, DropRate: 0.003,
			IntervalSec: 1,
		}, nil
	case ProfileWalking:
		return DefaultGeneratorConfig(), nil
	case ProfileDriving:
		return GeneratorConfig{
			MeanBps: 4.5e6, MinBps: 0.8e6, MaxBps: 14e6,
			Volatility: 0.22, Reversion: 0.08, DropRate: 0.05,
			IntervalSec: 1,
		}, nil
	default:
		return GeneratorConfig{}, fmt.Errorf("lte: unknown profile %d", int(p))
	}
}
