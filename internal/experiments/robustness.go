package experiments

import (
	"fmt"

	"ptile360/internal/geom"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/sim"
	"ptile360/internal/stats"
	"ptile360/internal/video"
)

// RobustnessResult reports how stable the headline normalized metrics are
// across independent random seeds — synthetic-substrate reproductions live
// or die by this.
type RobustnessResult struct {
	// Seeds are the evaluated seeds.
	Seeds []int64
	// EnergyOurs and QoEOurs hold, per trace ID, the mean and standard
	// deviation of Ours' Ctile-normalized energy/QoE across seeds.
	EnergyOurs map[int][2]float64
	QoEOurs    map[int][2]float64
	// OrderingHolds counts the seeds on which the full energy ordering
	// (Ours < Ptile < Nontile < Ftile < Ctile) held.
	OrderingHolds int
}

// Robustness reruns the scheme comparison under nSeeds different seeds and
// aggregates the headline metrics.
func Robustness(scale Scale, nSeeds int) (*RobustnessResult, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	if nSeeds < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 seeds, got %d", nSeeds)
	}
	res := &RobustnessResult{
		EnergyOurs: make(map[int][2]float64),
		QoEOurs:    make(map[int][2]float64),
	}
	energyByTrace := map[int][]float64{}
	qoeByTrace := map[int][]float64{}
	for i := 0; i < nSeeds; i++ {
		seedScale := scale
		seedScale.Seed = scale.Seed + int64(i)*1000
		res.Seeds = append(res.Seeds, seedScale.Seed)
		comp, err := RunComparison(power.Pixel3, seedScale)
		if err != nil {
			return nil, fmt.Errorf("experiments: robustness seed %d: %w", seedScale.Seed, err)
		}
		ordered := true
		for traceID := 1; traceID <= 2; traceID++ {
			ne := comp.NormalizedEnergy(traceID)
			nq := comp.NormalizedQoE(traceID)
			energyByTrace[traceID] = append(energyByTrace[traceID], ne[sim.SchemeOurs])
			qoeByTrace[traceID] = append(qoeByTrace[traceID], nq[sim.SchemeOurs])
			if !(ne[sim.SchemeOurs] < ne[sim.SchemePtile] &&
				ne[sim.SchemePtile] < ne[sim.SchemeNontile] &&
				ne[sim.SchemeNontile] < ne[sim.SchemeFtile] &&
				ne[sim.SchemeFtile] < 1) {
				ordered = false
			}
		}
		if ordered {
			res.OrderingHolds++
		}
	}
	for traceID := 1; traceID <= 2; traceID++ {
		res.EnergyOurs[traceID] = [2]float64{stats.Mean(energyByTrace[traceID]), stats.StdDev(energyByTrace[traceID])}
		res.QoEOurs[traceID] = [2]float64{stats.Mean(qoeByTrace[traceID]), stats.StdDev(qoeByTrace[traceID])}
	}
	return res, nil
}

// Render formats the robustness summary.
func (r *RobustnessResult) Render() Table {
	t := Table{
		Title: fmt.Sprintf("Robustness: headline metrics across %d seeds (energy ordering held on %d/%d)",
			len(r.Seeds), r.OrderingHolds, len(r.Seeds)),
		Columns: []string{"Trace", "Ours energy vs Ctile (mean±std)", "Ours QoE vs Ctile (mean±std)"},
	}
	for traceID := 1; traceID <= 2; traceID++ {
		e, q := r.EnergyOurs[traceID], r.QoEOurs[traceID]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", traceID),
			fmt.Sprintf("%.2f ± %.2f", e[0], e[1]),
			fmt.Sprintf("%.2f ± %.2f", q[0], q[1]),
		})
	}
	return t
}

// PredAccuracyResult measures viewport-prediction error versus look-ahead
// horizon for each predictor family — the ground truth behind the coverage
// machinery and the DESIGN.md §6 horizon cap.
type PredAccuracyResult struct {
	// Horizons are the evaluated look-aheads in seconds.
	Horizons []float64
	// MeanErr maps predictor kind → per-horizon mean great-circle error in
	// degrees.
	MeanErr map[predict.ViewportKind][]float64
	// HitRate maps predictor kind → per-horizon fraction of predictions
	// whose error stays within half a tile (22.5°).
	HitRate map[predict.ViewportKind][]float64
}

// PredAccuracy evaluates the predictor families on the evaluation users of
// video 8.
func PredAccuracy(scale Scale) (*PredAccuracyResult, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	p, err := video.ProfileByID(8)
	if err != nil {
		return nil, err
	}
	setup, err := setupVideo(8, scale)
	if err != nil {
		return nil, err
	}
	res := &PredAccuracyResult{
		Horizons: []float64{0.5, 1, 2, 3},
		MeanErr:  make(map[predict.ViewportKind][]float64),
		HitRate:  make(map[predict.ViewportKind][]float64),
	}
	kinds := []predict.ViewportKind{predict.ViewportRidge, predict.ViewportOLS, predict.ViewportStatic}
	nSeg := p.Segments(1)
	for _, kind := range kinds {
		cfg := predict.DefaultViewportConfig()
		cfg.Kind = kind
		meanErr := make([]float64, len(res.Horizons))
		hits := make([]float64, len(res.Horizons))
		var count float64
		for _, tr := range setup.Eval {
			xs, ys := tr.XYSeries()
			for seg := 2; seg < nSeg-4; seg += 3 {
				now := float64(seg)
				idx := int(now * 50)
				if idx < 2 || idx > len(xs) {
					continue
				}
				count++
				for hi, h := range res.Horizons {
					pred, err := predict.Viewport(xs[:idx], ys[:idx], h, cfg)
					if err != nil {
						return nil, err
					}
					actualO, err := tr.OrientationAt(now + h)
					if err != nil {
						return nil, err
					}
					errDeg := geom.AngleBetween(geom.OrientationOf(pred), actualO)
					meanErr[hi] += errDeg
					if errDeg <= 22.5 {
						hits[hi]++
					}
				}
			}
		}
		if count == 0 {
			return nil, fmt.Errorf("experiments: no prediction samples")
		}
		for hi := range res.Horizons {
			meanErr[hi] /= count
			hits[hi] /= count
		}
		res.MeanErr[kind] = meanErr
		res.HitRate[kind] = hits
	}
	return res, nil
}

// Render formats the prediction-accuracy sweep.
func (r *PredAccuracyResult) Render() Table {
	t := Table{
		Title:   "Viewport-prediction accuracy vs look-ahead horizon (video 8)",
		Columns: []string{"Predictor", "Horizon (s)", "Mean error (°)", "Within half-tile"},
	}
	for _, kind := range []predict.ViewportKind{predict.ViewportRidge, predict.ViewportOLS, predict.ViewportStatic} {
		for hi, h := range r.Horizons {
			t.Rows = append(t.Rows, []string{
				kind.String(),
				fmt.Sprintf("%.1f", h),
				fmt.Sprintf("%.1f", r.MeanErr[kind][hi]),
				fmt.Sprintf("%.0f%%", 100*r.HitRate[kind][hi]),
			})
		}
	}
	return t
}
