package main

import (
	"fmt"
	"time"

	"ptile360/internal/sim"
)

// Helpers shared by the workloads' per-layer measurements.

// sampleIndices picks every k-th of n items: 1 in per, but at least least
// items (all of them when n ≤ least).
func sampleIndices(n, per, least int) []int {
	step := per
	if n/step < least {
		step = n / least
	}
	if step < 1 {
		step = 1
	}
	var out []int
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	return out
}

// addLayerMedians reports, for each per-layer metric the traced rounds
// measured, its median across them.
func addLayerMedians(rep *report, traced []roundResult) {
	for _, d := range perLayer {
		var vs []float64
		for _, r := range traced {
			if v, ok := r.layer[d.name]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) > 0 {
			rep.add(d.name, median(vs), d.unit, len(vs))
		}
	}
}

// maxReplaySessions caps the sessions a step replay runs.
const maxReplaySessions = 256

// stepTimes times scalar Stepper.Step over n sessions made by newState,
// stepping each to completion, and returns every step's time in ns.
func stepTimes(cat *sim.Catalog, cfg sim.Config, n int, newState func(*sim.Stepper, int) (*sim.State, error)) ([]float64, error) {
	st, err := sim.NewStepper(cat, cfg)
	if err != nil {
		return nil, err
	}
	var steps []float64
	for i := 0; i < n; i++ {
		state, err := newState(st, i)
		if err != nil {
			return nil, fmt.Errorf("replay session %d: %w", i, err)
		}
		for {
			start := time.Now()
			info, err := st.Step(state)
			d := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("replay session %d: %w", i, err)
			}
			steps = append(steps, float64(d.Nanoseconds()))
			if info.Done {
				break
			}
		}
	}
	return steps, nil
}

// addStepMetrics reports the mean and 99th-percentile step time.
func addStepMetrics(rep *report, steps []float64) error {
	if len(steps) == 0 {
		return fmt.Errorf("step replay: no steps")
	}
	sum := 0.0
	for _, s := range steps {
		sum += s
	}
	rep.add("sim.step_ns", sum/float64(len(steps)), "ns", len(steps))
	rep.add("sim.step_p99_ns", quantiles(steps, 100)[98], "ns", len(steps))
	return nil
}
