package experiments

import (
	"math"
	"strings"
	"testing"

	"ptile360/internal/power"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// paperScale runs the paper's 48/40 user split but restricted to two videos
// to keep the test suite fast while preserving the calibrated statistics.
func paperScale() Scale {
	s := FullScale()
	s.Videos = []int{2, 8}
	return s
}

func TestScaleValidate(t *testing.T) {
	if err := FullScale().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := QuickScale().Validate(); err != nil {
		t.Fatal(err)
	}
	withNetem := QuickScale()
	withNetem.NetemProfile = "bufferbloat,capacity=8"
	if err := withNetem.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Scale){
		func(s *Scale) { s.UsersPerVideo = 1 },
		func(s *Scale) { s.TrainUsers = 0 },
		func(s *Scale) { s.TrainUsers = s.UsersPerVideo },
		func(s *Scale) { s.EvalUsers = 0 },
		func(s *Scale) { s.EvalUsers = s.UsersPerVideo },
		func(s *Scale) { s.Videos = nil },
		func(s *Scale) { s.Videos = []int{99} },
		func(s *Scale) { s.TraceSamples = 0 },
	}
	for i, mutate := range muts {
		s := FullScale()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestScaleValidateRejectsBadNetemSpec(t *testing.T) {
	for _, spec := range []string{"nosuch", "stable,capacity=-1"} {
		s := QuickScale()
		s.NetemProfile = spec
		if err := s.Validate(); err == nil {
			t.Fatalf("NetemProfile %q accepted", spec)
		}
	}
}

func TestTable1ReproducesPowerModels(t *testing.T) {
	res, err := Table1(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, phone := range power.Phones() {
		pub, fit := res.Published[phone], res.Fitted[phone]
		if math.Abs(pub.Tx-fit.Tx) > 3 {
			t.Fatalf("%v: Tx fitted %g vs published %g", phone, fit.Tx, pub.Tx)
		}
		for _, scheme := range power.Schemes() {
			p, f := pub.Decode[scheme], fit.Decode[scheme]
			if math.Abs(p.Base-f.Base) > 20 || math.Abs(p.Slope-f.Slope) > 0.8 {
				t.Fatalf("%v/%v: fitted %+v vs published %+v", phone, scheme, f, p)
			}
		}
	}
	tbl := res.Render()
	if len(tbl.Rows) != 3*6 {
		t.Fatalf("Table I render has %d rows, want 18", len(tbl.Rows))
	}
}

func TestTable2ReproducesQoECoefficients(t *testing.T) {
	res, err := Table2(42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pearson < 0.97 {
		t.Fatalf("Pearson %g below 0.97 (paper 0.9791)", res.Pearson)
	}
	if math.Abs(res.Fitted.C4-res.Published.C4) > 0.05 {
		t.Fatalf("c4 fitted %g vs published %g", res.Fitted.C4, res.Published.C4)
	}
	if len(res.Render().Rows) != 2 {
		t.Fatal("Table II render should have 2 rows")
	}
}

func TestTable3(t *testing.T) {
	tbl := Table3()
	if len(tbl.Rows) != 8 {
		t.Fatalf("Table III has %d rows, want 8", len(tbl.Rows))
	}
	if tbl.Rows[0][2] != "Basketball Match" || tbl.Rows[7][2] != "Freestyle Skiing" {
		t.Fatalf("Table III content wrong: %v", tbl.Rows)
	}
}

func TestFig2aSaving(t *testing.T) {
	res, err := Fig2a()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports a 35% transmission-energy saving at typical quality;
	// the mean over the ladder should land in a generous band around it.
	saving := 1 - res.Mean
	if saving < 0.30 || saving > 0.70 {
		t.Fatalf("mean Tx saving %.2f outside [0.30, 0.70]", saving)
	}
	// Per-quality ratios reproduce Fig. 8 medians at reference complexity.
	want := map[video.Quality]float64{1: 0.27, 2: 0.35, 3: 0.47, 4: 0.57, 5: 0.62}
	for q, w := range want {
		if math.Abs(res.PerQuality[q]-w) > 0.02 {
			t.Fatalf("q%d ratio %.3f, want %.2f ± 0.02", q, res.PerQuality[q], w)
		}
	}
	if len(res.Render().Rows) != 5 {
		t.Fatal("Fig 2a render should have 5 rows")
	}
}

func TestFig2bSeries(t *testing.T) {
	res, err := Fig2b()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pool) != 9 {
		t.Fatalf("pool series length %d, want 9", len(res.Pool))
	}
	if math.Abs(res.Pool[0].TimeSec-1.3) > 0.01 || math.Abs(res.Pool[8].TimeSec-0.5) > 0.01 {
		t.Fatalf("decode-time endpoints %g/%g, want 1.3/0.5", res.Pool[0].TimeSec, res.Pool[8].TimeSec)
	}
	if len(res.Render().Rows) != 10 {
		t.Fatal("Fig 2b render should have 10 rows")
	}
}

func TestFig2cSaving(t *testing.T) {
	res, err := Fig2c()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: Ptile saves 41% vs the best multi-decoder configuration. Our
	// pipeline model lands in the same band.
	if res.SavingVsBest < 0.30 || res.SavingVsBest > 0.70 {
		t.Fatalf("processing-energy saving %.2f outside [0.30, 0.70]", res.SavingVsBest)
	}
	if res.Normalized[0] >= 1 {
		t.Fatal("Ptile processing energy should be below the 1-decoder baseline")
	}
}

func TestFig4a(t *testing.T) {
	res, err := Fig4a(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerVideo) != 2 {
		t.Fatalf("per-video stats for %d videos, want 2", len(res.PerVideo))
	}
	for id, v := range res.PerVideo {
		p, _ := video.ProfileByID(id)
		if math.Abs(v[0]-p.SIMean) > 5 || math.Abs(v[1]-p.TIMean) > 5 {
			t.Fatalf("video %d SI/TI means %v far from profile (%g, %g)", id, v, p.SIMean, p.TIMean)
		}
	}
}

func TestFig4b(t *testing.T) {
	res, err := Fig4b(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Surface) != 15 {
		t.Fatalf("surface has %d samples, want 15", len(res.Surface))
	}
	// Q0 must increase with bitrate within each content row.
	for i := 1; i < len(res.Surface); i++ {
		if res.Surface[i][0] == res.Surface[i-1][0] && res.Surface[i][3] <= res.Surface[i-1][3] {
			t.Fatalf("Q0 not increasing with bitrate at row %d", i)
		}
	}
}

func TestFig5Claim(t *testing.T) {
	scale := paperScale()
	res, err := Fig5(scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.FracAbove10 < 0.30 || res.FracAbove10 > 0.55 {
		t.Fatalf("fraction above 10°/s = %.3f, want within [0.30, 0.55] (paper >0.30)", res.FracAbove10)
	}
	if res.Median > 10 {
		t.Fatalf("median speed %.1f should be below 10°/s", res.Median)
	}
	// CDF must be monotone.
	for i := 1; i < len(res.CDF); i++ {
		if res.CDF[i].P < res.CDF[i-1].P {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestFig6Split(t *testing.T) {
	res, err := Fig6(paperScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.UnboundedMaxDiameter <= 45 {
		t.Fatalf("expected an oversized unbounded cluster, max diameter %.1f", res.UnboundedMaxDiameter)
	}
	if res.BoundedMaxDiameter > 45+1e-9 {
		t.Fatalf("Algorithm 1 cluster diameter %.1f exceeds sigma", res.BoundedMaxDiameter)
	}
	if res.BoundedClusters < res.UnboundedClusters {
		t.Fatal("splitting cannot reduce the cluster count")
	}
}

func TestFig7PaperClaims(t *testing.T) {
	res, err := Fig7(paperScale())
	if err != nil {
		t.Fatal(err)
	}
	// Video 2 (focused): ≥95% of segments need one Ptile.
	if d := res.CountDist[2]; d[0] < 0.95 {
		t.Fatalf("video 2: %.2f of segments with one Ptile, want ≥0.95", d[0])
	}
	// Video 8 (exploring): ≥92% need at most two.
	if d := res.CountDist[8]; d[0]+d[1] < 0.92 {
		t.Fatalf("video 8: %.2f of segments with ≤2 Ptiles, want ≥0.92", d[0]+d[1])
	}
	// Coverage: ≥80% of users everywhere (paper Fig. 7b).
	for id, c := range res.Coverage {
		if c < 0.80 {
			t.Fatalf("video %d coverage %.2f below 0.80", id, c)
		}
	}
}

func TestFig8PaperMedians(t *testing.T) {
	res, err := Fig8(paperScale())
	if err != nil {
		t.Fatal(err)
	}
	want := [5]float64{0.27, 0.35, 0.47, 0.57, 0.62}
	for id, med := range res.Medians {
		for i, w := range want {
			// Real Ptiles cover more than the reference nine-tile block and
			// content jitters, so allow a moderate band around the paper's
			// medians.
			if math.Abs(med[i]-w) > 0.10 {
				t.Fatalf("video %d q%d median %.3f, want %.2f ± 0.10", id, i+1, med[i], w)
			}
		}
	}
}

// TestComparisonShape verifies the Figs. 9–11 orderings at the calibrated
// 40-training-user scale on two representative videos.
func TestComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale comparison is slow")
	}
	scale := paperScale()
	scale.EvalUsers = 4
	comp, err := RunComparison(power.Pixel3, scale)
	if err != nil {
		t.Fatal(err)
	}
	for traceID := 1; traceID <= 2; traceID++ {
		ne := comp.NormalizedEnergy(traceID)
		if !(ne[sim.SchemeOurs] < ne[sim.SchemePtile] &&
			ne[sim.SchemePtile] < ne[sim.SchemeNontile] &&
			ne[sim.SchemeNontile] < ne[sim.SchemeFtile] &&
			ne[sim.SchemeFtile] < 1.0) {
			t.Fatalf("trace %d energy ordering broken: %v", traceID, ne)
		}
		nq := comp.NormalizedQoE(traceID)
		if nq[sim.SchemeOurs] <= 1.0 {
			t.Fatalf("trace %d: Ours QoE %.2f not above Ctile", traceID, nq[sim.SchemeOurs])
		}
		if nq[sim.SchemePtile] <= 1.0 {
			t.Fatalf("trace %d: Ptile QoE %.2f not above Ctile", traceID, nq[sim.SchemePtile])
		}
		if nq[sim.SchemeNontile] >= 1.0 {
			t.Fatalf("trace %d: Nontile QoE %.2f should be the worst", traceID, nq[sim.SchemeNontile])
		}
	}
	// Headline: Ours saves a large share of energy (paper 49.7%).
	saving := 1 - comp.NormalizedEnergy(1)[sim.SchemeOurs]
	if saving < 0.25 {
		t.Fatalf("Ours trace-1 energy saving %.2f below 0.25", saving)
	}
	// Renders carry all five schemes.
	for _, tbl := range append(comp.RenderEnergy(), comp.RenderQoE()...) {
		if len(tbl.Rows) == 0 {
			t.Fatalf("empty render: %s", tbl.Title)
		}
	}
}

// TestNormalizedSumsVideosInIDOrder pins the Fig. 9c/10/11c bars to one
// bit pattern: the per-video ratios are summed in ascending video ID. Three
// videos are the fewest that can show an order dependence (a two-term sum
// commutes), and these ratios average to different floats in 4 of their 6
// orders.
func TestNormalizedSumsVideosInIDOrder(t *testing.T) {
	ratio := map[int]float64{3: 0.1, 5: 0.7, 7: 0.3}
	c := &Comparison{Phone: power.Pixel3}
	for _, id := range []int{7, 3, 5} {
		c.Cells = append(c.Cells,
			CellResult{Cell: Cell{Scheme: sim.SchemeCtile, VideoID: id, TraceID: 1}, EnergyPerSegment: 1, QoE: 1},
			CellResult{Cell: Cell{Scheme: sim.SchemeOurs, VideoID: id, TraceID: 1}, EnergyPerSegment: ratio[id], QoE: ratio[id]})
	}
	sum := ratio[3]
	sum += ratio[5]
	sum += ratio[7]
	want := math.Float64bits(sum / 3)
	if other := math.Float64bits((ratio[5] + ratio[7] + ratio[3]) / 3); other == want {
		t.Fatal("fixture ratios do not depend on summation order")
	}
	for i := 0; i < 64; i++ {
		e := c.NormalizedEnergy(1)[sim.SchemeOurs]
		q := c.NormalizedQoE(1)[sim.SchemeOurs]
		if math.Float64bits(e) != want || math.Float64bits(q) != want {
			t.Fatalf("call %d: energy %v, QoE %v; want the ascending-ID mean %v", i, e, q, sum/3)
		}
	}
}

func TestRunComparisonValidation(t *testing.T) {
	bad := QuickScale()
	bad.Videos = nil
	if _, err := RunComparison(power.Pixel3, bad); err == nil {
		t.Fatal("want error for invalid scale")
	}
}

func TestFig1Snapshot(t *testing.T) {
	res, err := Fig1(8, 30, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.VideoID != 8 || res.Segment != 30 {
		t.Fatalf("snapshot identity: %+v", res)
	}
	if res.Users == 0 {
		t.Fatal("no viewing centers rendered")
	}
	if len(res.Lines) == 0 {
		t.Fatal("no panorama lines rendered")
	}
	// Count the marks: every user must be drawn (possibly overlapping).
	var marks int
	for _, line := range res.Lines {
		marks += strings.Count(line, "@") + strings.Count(line, "o")
	}
	if marks == 0 || marks > res.Users {
		t.Fatalf("marks = %d for %d users", marks, res.Users)
	}
	// With at least one Ptile there must be Ptile interior cells.
	if len(res.Ptiles) > 0 {
		var interior int
		for _, line := range res.Lines {
			interior += strings.Count(line, "#")
		}
		if interior == 0 {
			t.Fatal("Ptile present but no interior rendered")
		}
	}
	tbl := res.Render()
	if len(tbl.Rows) < len(res.Lines) {
		t.Fatal("render dropped lines")
	}
}

func TestFig1Validation(t *testing.T) {
	if _, err := Fig1(8, -1, QuickScale()); err == nil {
		t.Fatal("want error for negative segment")
	}
	if _, err := Fig1(8, 1_000_000, QuickScale()); err == nil {
		t.Fatal("want error for out-of-range segment")
	}
	bad := QuickScale()
	bad.Videos = nil
	if _, err := Fig1(8, 0, bad); err == nil {
		t.Fatal("want error for invalid scale")
	}
}

func TestAblations(t *testing.T) {
	res, err := Ablations(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// 3 epsilon + 4 horizon + 3 buffer + 4 estimator + 3 viewport +
	// 2 controller = 19 rows.
	if len(res.Rows) != 19 {
		t.Fatalf("ablation rows = %d, want 19", len(res.Rows))
	}
	var eps0, eps15 *AblationRow
	for i := range res.Rows {
		row := &res.Rows[i]
		if row.EnergyPerSegment <= 0 || row.MeanFrameRate <= 0 {
			t.Fatalf("malformed row: %+v", row)
		}
		if row.Sweep == "epsilon" && row.Setting == "0%" {
			eps0 = row
		}
		if row.Sweep == "epsilon" && row.Setting == "15%" {
			eps15 = row
		}
	}
	if eps0 == nil || eps15 == nil {
		t.Fatal("epsilon sweep rows missing")
	}
	// A larger QoE tolerance must not cost more energy.
	if eps15.EnergyPerSegment > eps0.EnergyPerSegment {
		t.Fatalf("ε=15%% energy %g above ε=0%% %g", eps15.EnergyPerSegment, eps0.EnergyPerSegment)
	}
	// ε=0 pins the full frame rate.
	if eps0.MeanFrameRate < 27 {
		t.Fatalf("ε=0%% mean frame rate %g; reduction should barely engage", eps0.MeanFrameRate)
	}
	if tbl := res.Render(); len(tbl.Rows) != 19 {
		t.Fatal("render row count mismatch")
	}
	// The objective swap: the QoE controller must spend at least as much
	// energy as the energy controller.
	var eMPC, qMPC *AblationRow
	for i := range res.Rows {
		if res.Rows[i].Sweep == "controller" {
			if res.Rows[i].Setting == "energy-mpc" {
				eMPC = &res.Rows[i]
			} else {
				qMPC = &res.Rows[i]
			}
		}
	}
	if eMPC == nil || qMPC == nil {
		t.Fatal("controller sweep rows missing")
	}
	if eMPC.EnergyPerSegment > qMPC.EnergyPerSegment+1 {
		t.Fatalf("energy MPC (%g mJ) spends more than QoE MPC (%g mJ)",
			eMPC.EnergyPerSegment, qMPC.EnergyPerSegment)
	}
}

func TestAblationsValidation(t *testing.T) {
	bad := QuickScale()
	bad.TraceSamples = 0
	if _, err := Ablations(bad); err == nil {
		t.Fatal("want error for invalid scale")
	}
}

func TestPredAccuracy(t *testing.T) {
	res, err := PredAccuracy(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Horizons) != 4 {
		t.Fatalf("horizons = %v", res.Horizons)
	}
	for kind, errs := range res.MeanErr {
		if len(errs) != len(res.Horizons) {
			t.Fatalf("%v: %d error points", kind, len(errs))
		}
		// Error must grow with horizon.
		for i := 1; i < len(errs); i++ {
			if errs[i] < errs[i-1] {
				t.Fatalf("%v: error not increasing with horizon: %v", kind, errs)
			}
		}
		for i, hr := range res.HitRate[kind] {
			if hr < 0 || hr > 1 {
				t.Fatalf("%v horizon %d: hit rate %g", kind, i, hr)
			}
		}
	}
	// Ridge must not be worse than OLS (the paper's stated reason for
	// choosing it).
	ridge := res.MeanErr[0] // ViewportRidge is the zero value
	ols := res.MeanErr[1]
	for i := range ridge {
		if ridge[i] > ols[i]+2 {
			t.Fatalf("ridge error %v notably above OLS %v", ridge, ols)
		}
	}
	if len(res.Render().Rows) != 12 {
		t.Fatal("render should have 12 rows")
	}
}

func TestRobustnessQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison is slow")
	}
	scale := QuickScale()
	res, err := Robustness(scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 2 {
		t.Fatalf("seeds = %v", res.Seeds)
	}
	for traceID := 1; traceID <= 2; traceID++ {
		e := res.EnergyOurs[traceID]
		if e[0] <= 0 || e[0] >= 1 {
			t.Fatalf("trace %d: mean normalized energy %g outside (0, 1)", traceID, e[0])
		}
		if e[1] < 0 || e[1] > 0.2 {
			t.Fatalf("trace %d: energy std %g implausibly large", traceID, e[1])
		}
	}
	if len(res.Render().Rows) != 2 {
		t.Fatal("render should have 2 rows")
	}
}

func TestRobustnessValidation(t *testing.T) {
	if _, err := Robustness(QuickScale(), 1); err == nil {
		t.Fatal("want error for a single seed")
	}
	bad := QuickScale()
	bad.Videos = nil
	if _, err := Robustness(bad, 2); err == nil {
		t.Fatal("want error for invalid scale")
	}
	if _, err := PredAccuracy(bad); err == nil {
		t.Fatal("want error for invalid scale")
	}
}

func TestProjectionStudy(t *testing.T) {
	res, err := Projection()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoverRows) != 4 || len(res.Oversampling) != 5 {
		t.Fatalf("shapes: %d cover rows, %d oversampling rows", len(res.CoverRows), len(res.Oversampling))
	}
	for _, row := range res.CoverRows {
		if row[1] < 4 || row[1] > 32 || row[2] != 9 {
			t.Fatalf("cover row %v malformed", row)
		}
	}
	// Oversampling grows monotonically toward the pole, starting at 1.
	if res.Oversampling[0][1] != 1 {
		t.Fatalf("equator oversampling %g, want 1", res.Oversampling[0][1])
	}
	for i := 1; i < len(res.Oversampling); i++ {
		if res.Oversampling[i][1] <= res.Oversampling[i-1][1] {
			t.Fatal("oversampling not increasing with pitch")
		}
	}
	if tables := res.Render(); len(tables) != 2 {
		t.Fatal("render should produce 2 tables")
	}
}
