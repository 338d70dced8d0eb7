package headtrace

import (
	"bytes"
	"encoding/csv"
	"math"
	"slices"
	"strconv"
	"sync"
	"testing"

	"ptile360/internal/geom"
	"ptile360/internal/stats"
	"ptile360/internal/video"
)

func testProfile() video.Profile {
	p, _ := video.ProfileByID(2)
	return p
}

func smallConfig() GeneratorConfig {
	cfg := DefaultGeneratorConfig()
	cfg.NumUsers = 12
	return cfg
}

func genSmall(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate(testProfile(), smallConfig(), 1)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

func TestGenerateShape(t *testing.T) {
	ds := genSmall(t)
	if len(ds.Traces) != 12 {
		t.Fatalf("traces = %d, want 12", len(ds.Traces))
	}
	p := testProfile()
	wantSamples := int(float64(p.DurationSec) * SampleRate)
	for _, tr := range ds.Traces {
		if len(tr.Samples) != wantSamples {
			t.Fatalf("user %d: %d samples, want %d", tr.UserID, len(tr.Samples), wantSamples)
		}
		if tr.VideoID != p.ID {
			t.Fatalf("video ID %d, want %d", tr.VideoID, p.ID)
		}
		for i, s := range tr.Samples {
			if s.O.Yaw < 0 || s.O.Yaw >= 360 || s.O.Pitch < -90 || s.O.Pitch > 90 {
				t.Fatalf("user %d sample %d: orientation out of range %+v", tr.UserID, i, s.O)
			}
			if i > 0 && s.T <= tr.Samples[i-1].T {
				t.Fatalf("timestamps not increasing at %d", i)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testProfile(), smallConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testProfile(), smallConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a.Traces {
		for i := range a.Traces[u].Samples {
			if a.Traces[u].Samples[i] != b.Traces[u].Samples[i] {
				t.Fatalf("user %d diverges at sample %d", u, i)
			}
		}
	}
	c, err := Generate(testProfile(), smallConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Traces[0].Samples[100] == c.Traces[0].Samples[100] &&
		a.Traces[0].Samples[500] == c.Traces[0].Samples[500] {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := smallConfig()
	bad.NumUsers = 0
	if _, err := Generate(testProfile(), bad, 1); err == nil {
		t.Fatal("want error for zero users")
	}
	short := testProfile()
	short.DurationSec = 0
	if _, err := Generate(short, smallConfig(), 1); err == nil {
		t.Fatal("want error for zero-length video")
	}
}

func TestConfigValidate(t *testing.T) {
	muts := []func(*GeneratorConfig){
		func(c *GeneratorConfig) { c.ChaseGain = 0 },
		func(c *GeneratorConfig) { c.MaxHeadSpeed = -1 },
		func(c *GeneratorConfig) { c.JitterStd = -1 },
		func(c *GeneratorConfig) { c.WandererFracFocused = 1.5 },
		func(c *GeneratorConfig) { c.WandererFracExploring = -0.1 },
		func(c *GeneratorConfig) { c.SaccadeRate = -1 },
	}
	for i, mutate := range muts {
		cfg := DefaultGeneratorConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestHeadSpeedPhysicallyBounded(t *testing.T) {
	ds := genSmall(t)
	cfg := smallConfig()
	// Max observed inter-sample speed must respect the rate limit plus
	// jitter slack.
	slack := 3 * cfg.JitterStd * SampleRate * 1.5
	for _, tr := range ds.Traces {
		for _, sp := range tr.SwitchingSpeeds() {
			if sp > cfg.MaxHeadSpeed+slack {
				t.Fatalf("speed %g exceeds limit %g + slack", sp, cfg.MaxHeadSpeed)
			}
		}
	}
}

func TestFig5SpeedDistribution(t *testing.T) {
	// Aggregate over all videos: more than 30% of samples above 10°/s, but
	// not wildly more (the published CDF puts the bulk below ~50°/s).
	cfg := DefaultGeneratorConfig()
	cfg.NumUsers = 10
	var speeds []float64
	for _, p := range video.Catalog() {
		ds, err := Generate(p, cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range ds.Traces {
			speeds = append(speeds, tr.SwitchingSpeeds()...)
		}
	}
	frac := stats.FractionAbove(speeds, 10)
	if frac < 0.30 || frac > 0.55 {
		t.Fatalf("fraction above 10°/s = %.3f, want within [0.30, 0.55]", frac)
	}
	med, err := stats.Median(speeds)
	if err != nil {
		t.Fatal(err)
	}
	if med > 10 {
		t.Fatalf("median speed %.1f°/s, want below 10 (fixation-dominated)", med)
	}
}

func TestOrientationAt(t *testing.T) {
	ds := genSmall(t)
	tr := ds.Traces[0]
	o, err := tr.OrientationAt(-1)
	if err != nil {
		t.Fatal(err)
	}
	if o != tr.Samples[0].O {
		t.Fatal("before-start lookup should clamp to first sample")
	}
	o, err = tr.OrientationAt(1e9)
	if err != nil {
		t.Fatal(err)
	}
	if o != tr.Samples[len(tr.Samples)-1].O {
		t.Fatal("after-end lookup should clamp to last sample")
	}
	empty := &Trace{}
	if _, err := empty.OrientationAt(0); err == nil {
		t.Fatal("want error for empty trace")
	}
}

func TestViewingCenter(t *testing.T) {
	ds := genSmall(t)
	tr := ds.Traces[0]
	pt, err := tr.ViewingCenter(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantO, _ := tr.OrientationAt(3.5)
	want := geom.PointOf(wantO)
	if pt != want {
		t.Fatalf("center = %+v, want %+v", pt, want)
	}
	if _, err := tr.ViewingCenter(-1, 1); err == nil {
		t.Fatal("want error for negative segment")
	}
	if _, err := tr.ViewingCenter(0, 0); err == nil {
		t.Fatal("want error for zero duration")
	}
}

func TestXYSeriesContinuity(t *testing.T) {
	ds := genSmall(t)
	for _, tr := range ds.Traces {
		xs, ys := tr.XYSeries()
		if len(xs) != len(tr.Samples) || len(ys) != len(tr.Samples) {
			t.Fatal("series length mismatch")
		}
		// The unwrapped x series must never jump by more than the physical
		// head-speed limit per sample (plus noise) — no 360° seam jumps.
		for i := 1; i < len(xs); i++ {
			if d := math.Abs(xs[i] - xs[i-1]); d > 10 {
				t.Fatalf("user %d: unwrapped x jumps %g at %d", tr.UserID, d, i)
			}
		}
		// Re-wrapped series must match the raw samples.
		for i, s := range tr.Samples {
			if diff := math.Abs(geom.WrapDeltaX(geom.NormalizeYaw(xs[i]), geom.PointOf(s.O).X)); diff > 1e-6 {
				t.Fatalf("user %d: wrap mismatch %g at %d", tr.UserID, diff, i)
			}
		}
	}
}

// xySeriesReference is XYSeries' loop without the memo: the unwrapped x
// and raw y panorama coordinates of every sample.
func xySeriesReference(tr *Trace) (xs, ys []float64) {
	xs = make([]float64, len(tr.Samples))
	ys = make([]float64, len(tr.Samples))
	var cum, prevRaw float64
	for i, s := range tr.Samples {
		p := geom.PointOf(s.O)
		if i == 0 {
			cum = p.X
		} else {
			cum += geom.WrapDeltaX(prevRaw, p.X)
		}
		prevRaw = p.X
		xs[i] = cum
		ys[i] = p.Y
	}
	return xs, ys
}

// seamTrace pans right through the 0/360 seam twice, so its unwrapped x
// series must leave [0, 360).
func seamTrace() *Trace {
	tr := &Trace{UserID: 7, VideoID: 2}
	for i := 0; i < 3*int(SampleRate); i++ {
		tr.Samples = append(tr.Samples, Sample{
			T: float64(i) / SampleRate,
			O: geom.Orientation{Yaw: geom.NormalizeYaw(300 + 3*float64(i)), Pitch: 20 * math.Sin(float64(i)/9)},
		})
	}
	return tr
}

// TestXYSeriesMemoized pins the once-per-trace series: every call returns
// the same backing arrays, whose values equal the unmemoized loop's on
// Float64bits on a trace that crosses the seam.
func TestXYSeriesMemoized(t *testing.T) {
	tr := seamTrace()
	xs, ys := tr.XYSeries()
	for i := 0; i < 3; i++ {
		xs2, ys2 := tr.XYSeries()
		if &xs2[0] != &xs[0] || &ys2[0] != &ys[0] || len(xs2) != len(xs) || len(ys2) != len(ys) {
			t.Fatalf("call %d returned new series", i+2)
		}
	}
	wantX, wantY := xySeriesReference(tr)
	if len(xs) != len(wantX) || len(ys) != len(wantY) {
		t.Fatalf("series lengths %d/%d, want %d", len(xs), len(ys), len(wantX))
	}
	for i := range wantX {
		if math.Float64bits(xs[i]) != math.Float64bits(wantX[i]) || math.Float64bits(ys[i]) != math.Float64bits(wantY[i]) {
			t.Fatalf("sample %d: (%v, %v), want (%v, %v)", i, xs[i], ys[i], wantX[i], wantY[i])
		}
	}
	if last := xs[len(xs)-1]; last < 720 {
		t.Fatalf("unwrapped x ends at %g: the trace never crossed the seam twice", last)
	}
}

// TestXYSeriesConcurrentFirstCall has 8 goroutines make a trace's first
// XYSeries call at once; under -race it proves the memo is safe to build
// from any session, and every caller sees the one series.
func TestXYSeriesConcurrentFirstCall(t *testing.T) {
	tr := seamTrace()
	const callers = 8
	got := make([][2][]float64, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			xs, ys := tr.XYSeries()
			got[g] = [2][]float64{xs, ys}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < callers; g++ {
		if &got[g][0][0] != &got[0][0][0] || &got[g][1][0] != &got[0][1][0] {
			t.Fatalf("caller %d got a different series", g)
		}
	}
}

func TestSplitTrainEval(t *testing.T) {
	ds := genSmall(t)
	train, eval, err := ds.SplitTrainEval(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 9 || len(eval) != 3 {
		t.Fatalf("split %d/%d, want 9/3", len(train), len(eval))
	}
	seen := map[int]bool{}
	for _, tr := range append(append([]*Trace{}, train...), eval...) {
		if seen[tr.UserID] {
			t.Fatalf("user %d appears twice", tr.UserID)
		}
		seen[tr.UserID] = true
	}
	// Deterministic for equal seed.
	train2, _, err := ds.SplitTrainEval(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range train {
		if train[i].UserID != train2[i].UserID {
			t.Fatal("split not deterministic")
		}
	}
	if _, _, err := ds.SplitTrainEval(0, 3); err == nil {
		t.Fatal("want error for zero train size")
	}
	if _, _, err := ds.SplitTrainEval(12, 3); err == nil {
		t.Fatal("want error for train size = all users")
	}
}

// TestCSVRoundTrip checks WriteCSV's layout, the MMSys'17 dataset's: a
// user,video,t,yaw,pitch header, then one row per sample in trace order, at
// four decimals.
func TestCSVRoundTrip(t *testing.T) {
	ds := genSmall(t)
	subset := ds.Traces[:3]
	// Truncate for speed.
	for _, tr := range subset {
		tr.Samples = tr.Samples[:200]
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, subset); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"user", "video", "t", "yaw", "pitch"}; !slices.Equal(rows[0], want) {
		t.Fatalf("header %v, want %v", rows[0], want)
	}
	if len(rows) != 1+len(subset)*200 {
		t.Fatalf("%d rows, want a header and %d samples", len(rows), len(subset)*200)
	}
	row := 1
	for _, tr := range subset {
		for _, smp := range tr.Samples {
			want := []float64{float64(tr.UserID), float64(tr.VideoID), smp.T, smp.O.Yaw, smp.O.Pitch}
			for c, w := range want {
				got, err := strconv.ParseFloat(rows[row][c], 64)
				if err != nil || math.Abs(got-w) > 5e-5 {
					t.Fatalf("row %d column %d = %q, want %.4f", row, c, rows[row][c], w)
				}
			}
			row++
		}
	}
}

func TestDurationEmpty(t *testing.T) {
	empty := &Trace{}
	if empty.Duration() != 0 {
		t.Fatal("empty trace duration should be 0")
	}
	if empty.SwitchingSpeeds() != nil {
		t.Fatal("empty trace speeds should be nil")
	}
}

func TestDatasetStatistics(t *testing.T) {
	ds := genSmall(t)
	st, err := ds.Statistics(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 12 || st.Samples == 0 {
		t.Fatalf("stats counts: %+v", st)
	}
	if st.Speed.Mean <= 0 || st.FracAbove10 <= 0 || st.FracAbove10 >= 1 {
		t.Fatalf("speed stats: %+v", st.Speed)
	}
	if st.MeanPairwiseDist <= 0 || st.MeanPairwiseDist > 180 {
		t.Fatalf("dispersion %g out of range", st.MeanPairwiseDist)
	}
	empty := &Dataset{}
	if _, err := empty.Statistics(1, 10); err == nil {
		t.Fatal("want error for empty dataset")
	}
	if _, err := ds.Statistics(0, 10); err == nil {
		t.Fatal("want error for zero segment duration")
	}
}
