package experiments

import (
	"fmt"

	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/sim"
)

// AblationRow is one configuration of an ablation sweep with its session
// outcomes averaged over the evaluation users.
type AblationRow struct {
	// Sweep and Setting identify the knob and its value.
	Sweep, Setting string
	// EnergyPerSegment is the mean Eq. 1 energy per segment (mJ).
	EnergyPerSegment float64
	// QoE is the mean session QoE.
	QoE float64
	// Stalls is the mean stall count per session.
	Stalls float64
	// MeanFrameRate is the average chosen frame rate.
	MeanFrameRate float64
}

// AblationsResult holds the design-choice sweeps of DESIGN.md §5 evaluated
// on one video.
type AblationsResult struct {
	VideoID int
	Rows    []AblationRow
}

// Ablations sweeps the controller's design knobs — ε tolerance, MPC horizon,
// buffer threshold β, bandwidth-estimator family, and viewport-predictor
// family — on video 8 under trace 2, quantifying each choice the paper
// fixes. Every (setting, user) session is one job of a single pooled sweep;
// each setting then averages its users in order.
func Ablations(scale Scale) (*AblationsResult, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	setup, err := setupVideo(8, scale)
	if err != nil {
		return nil, err
	}
	_, trace2, err := standardTraces(scale)
	if err != nil {
		return nil, err
	}
	base, err := sim.DefaultConfig(sim.SchemeOurs, power.Pixel3)
	if err != nil {
		return nil, err
	}

	type knob struct {
		sweep, setting string
		cfg            sim.Config
	}
	var knobs []knob
	set := func(sweep, setting string, mutate func(*sim.Config)) {
		cfg := base
		mutate(&cfg)
		knobs = append(knobs, knob{sweep: sweep, setting: setting, cfg: cfg})
	}
	for _, eps := range []float64{0.0, 0.05, 0.15} {
		set("epsilon", fmt.Sprintf("%.0f%%", 100*eps), func(c *sim.Config) { c.Epsilon = eps })
	}
	for _, h := range []int{1, 3, 5, 8} {
		set("horizon", fmt.Sprintf("H=%d", h), func(c *sim.Config) { c.Horizon = h })
	}
	for _, beta := range []float64{2, 3, 5} {
		set("buffer", fmt.Sprintf("%.0fs", beta), func(c *sim.Config) { c.BufferCapSec = beta })
	}
	for _, kind := range []predict.EstimatorKind{
		predict.EstimatorHarmonic, predict.EstimatorLastSample,
		predict.EstimatorEWMA, predict.EstimatorMovingAverage,
	} {
		set("estimator", kind.String(), func(c *sim.Config) { c.Estimator = kind })
	}
	for _, kind := range []predict.ViewportKind{
		predict.ViewportRidge, predict.ViewportOLS, predict.ViewportStatic,
	} {
		set("viewport", kind.String(), func(c *sim.Config) { c.Viewport.Kind = kind })
	}
	// The objective swap: the paper's energy-minimizing MPC against the
	// QoE-maximizing MPC it descends from [24].
	set("controller", "energy-mpc", func(*sim.Config) {})
	set("controller", "qoe-mpc", func(c *sim.Config) { c.UseQoEMPC = true })

	sessions, err := sweep(len(knobs), len(setup.Eval), func(k, u int) (*sim.Result, error) {
		r, err := sim.Run(setup.Catalog, setup.Eval[u], trace2, knobs[k].cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s=%s: %w", knobs[k].sweep, knobs[k].setting, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	res := &AblationsResult{VideoID: 8}
	for k, kn := range knobs {
		row := AblationRow{Sweep: kn.sweep, Setting: kn.setting}
		for _, r := range sessions[k] {
			row.EnergyPerSegment += r.Energy.Total() / float64(r.Segments)
			row.QoE += r.QoE.MeanQ
			row.Stalls += float64(r.QoE.Stalls)
			row.MeanFrameRate += r.MeanFrameRate
		}
		n := float64(len(setup.Eval))
		row.EnergyPerSegment /= n
		row.QoE /= n
		row.Stalls /= n
		row.MeanFrameRate /= n
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the ablation sweeps.
func (r *AblationsResult) Render() Table {
	t := Table{
		Title:   fmt.Sprintf("Ablations (video %d, trace 2, Ours): controller design-knob sweeps", r.VideoID),
		Columns: []string{"Sweep", "Setting", "Energy (mJ/seg)", "QoE", "Stalls", "Mean fps"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Sweep, row.Setting,
			fmt.Sprintf("%.0f", row.EnergyPerSegment),
			fmt.Sprintf("%.1f", row.QoE),
			fmt.Sprintf("%.1f", row.Stalls),
			fmt.Sprintf("%.1f", row.MeanFrameRate),
		})
	}
	return t
}
