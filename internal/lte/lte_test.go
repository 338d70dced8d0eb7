package lte

import (
	"bytes"
	"encoding/csv"
	"math"
	"slices"
	"strconv"
	"testing"
)

func TestDefaultGeneratorConfig(t *testing.T) {
	if err := DefaultGeneratorConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorConfigValidate(t *testing.T) {
	muts := []func(*GeneratorConfig){
		func(c *GeneratorConfig) { c.MeanBps = 0 },
		func(c *GeneratorConfig) { c.MinBps = 0 },
		func(c *GeneratorConfig) { c.MaxBps = c.MinBps },
		func(c *GeneratorConfig) { c.MeanBps = c.MaxBps * 2 },
		func(c *GeneratorConfig) { c.Volatility = -1 },
		func(c *GeneratorConfig) { c.Reversion = 0 },
		func(c *GeneratorConfig) { c.DropRate = 2 },
		func(c *GeneratorConfig) { c.IntervalSec = 0 },
	}
	for i, mutate := range muts {
		cfg := DefaultGeneratorConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

// TestTrace2Statistics checks the published trace 2 characteristics: average
// ≈3.9 Mbps within [2.3, 8.4] Mbps.
func TestTrace2Statistics(t *testing.T) {
	tr, err := Generate(3000, DefaultGeneratorConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	mean := tr.Mean()
	if math.Abs(mean-3.9e6) > 0.4e6 {
		t.Fatalf("mean = %g, want ≈3.9 Mbps", mean)
	}
	for i, b := range tr.Bps {
		if b < 2.3e6-1 || b > 8.4e6+1 {
			t.Fatalf("sample %d = %g outside [2.3, 8.4] Mbps", i, b)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(100, DefaultGeneratorConfig(), 7)
	b, _ := Generate(100, DefaultGeneratorConfig(), 7)
	for i := range a.Bps {
		if a.Bps[i] != b.Bps[i] {
			t.Fatal("same seed must generate identical traces")
		}
	}
	c, _ := Generate(100, DefaultGeneratorConfig(), 8)
	same := true
	for i := range a.Bps {
		if a.Bps[i] != c.Bps[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(0, DefaultGeneratorConfig(), 1); err == nil {
		t.Fatal("want error for n=0")
	}
	bad := DefaultGeneratorConfig()
	bad.MeanBps = 0
	if _, err := Generate(10, bad, 1); err == nil {
		t.Fatal("want config validation error")
	}
}

func TestStandardTraces(t *testing.T) {
	tr1, tr2, err := StandardTraces(500, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr1.Bps) != 500 || len(tr2.Bps) != 500 {
		t.Fatal("trace lengths wrong")
	}
	for i := range tr1.Bps {
		if math.Abs(tr1.Bps[i]-2*tr2.Bps[i]) > 1e-6 {
			t.Fatalf("trace 1 is not 2× trace 2 at %d", i)
		}
	}
}

func TestScaleValidation(t *testing.T) {
	tr := &Trace{IntervalSec: 1, Bps: []float64{1e6}}
	if _, err := tr.Scale(0); err == nil {
		t.Fatal("want error for zero factor")
	}
}

func TestAtWrapsAround(t *testing.T) {
	tr := &Trace{IntervalSec: 1, Bps: []float64{1e6, 2e6, 3e6}}
	if tr.At(0.5) != 1e6 || tr.At(1.5) != 2e6 || tr.At(2.9) != 3e6 {
		t.Fatal("At lookup wrong")
	}
	if tr.At(3.5) != 1e6 {
		t.Fatal("At should wrap around the trace end")
	}
	if tr.At(-1) != 1e6 {
		t.Fatal("negative time should clamp to start")
	}
	empty := &Trace{IntervalSec: 1}
	if empty.At(0) != 0 {
		t.Fatal("empty trace At should be 0")
	}
}

func TestDownloadTimeConstantRate(t *testing.T) {
	tr := &Trace{IntervalSec: 1, Bps: []float64{4e6, 4e6, 4e6}}
	d, err := tr.DownloadTime(2e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.5) > 1e-9 {
		t.Fatalf("download time = %g, want 0.5", d)
	}
}

func TestDownloadTimeAcrossBoundary(t *testing.T) {
	// 1 Mbps for the first second, then 10 Mbps: 2 Mbit takes 1 s (1 Mbit)
	// plus 0.1 s (remaining 1 Mbit at 10 Mbps).
	tr := &Trace{IntervalSec: 1, Bps: []float64{1e6, 10e6}}
	d, err := tr.DownloadTime(2e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1.1) > 1e-9 {
		t.Fatalf("download time = %g, want 1.1", d)
	}
}

func TestDownloadTimeMidInterval(t *testing.T) {
	tr := &Trace{IntervalSec: 1, Bps: []float64{2e6, 4e6}}
	// Start at t=0.5: 0.5 s left at 2 Mbps (1 Mbit), then 4 Mbps.
	d, err := tr.DownloadTime(2e6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.75) > 1e-9 {
		t.Fatalf("download time = %g, want 0.75", d)
	}
}

func TestDownloadTimeValidation(t *testing.T) {
	tr := &Trace{IntervalSec: 1, Bps: []float64{1e6}}
	if _, err := tr.DownloadTime(-1, 0); err == nil {
		t.Fatal("want error for negative size")
	}
	if _, err := tr.DownloadTime(1, -1); err == nil {
		t.Fatal("want error for negative start")
	}
	d, err := tr.DownloadTime(0, 0)
	if err != nil || d != 0 {
		t.Fatalf("zero-size download: %g, %v", d, err)
	}
	empty := &Trace{IntervalSec: 1}
	if _, err := empty.DownloadTime(1, 0); err == nil {
		t.Fatal("want error for empty trace")
	}
}

func TestTraceValidate(t *testing.T) {
	cases := []*Trace{
		{IntervalSec: 0, Bps: []float64{1}},
		{IntervalSec: 1},
		{IntervalSec: 1, Bps: []float64{0}},
	}
	for i, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// TestCSVRoundTrip checks WriteCSV's layout: a t,bps header, then one row
// per interval, its start time at three decimals and its rate in whole bit/s.
func TestCSVRoundTrip(t *testing.T) {
	tr, err := Generate(50, DefaultGeneratorConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(tr.Bps) || !slices.Equal(rows[0], []string{"t", "bps"}) {
		t.Fatalf("%d rows under header %v, want %d under [t bps]", len(rows)-1, rows[0], len(tr.Bps))
	}
	for i, b := range tr.Bps {
		row := rows[1+i]
		if want := strconv.FormatFloat(float64(i)*tr.IntervalSec, 'f', 3, 64); row[0] != want {
			t.Fatalf("row %d time %q, want %q", i, row[0], want)
		}
		got, err := strconv.ParseFloat(row[1], 64)
		if err != nil || math.Abs(got-b) > 0.5 {
			t.Fatalf("row %d rate %q, want %.0f", i, row[1], b)
		}
	}
}

func TestDuration(t *testing.T) {
	tr := &Trace{IntervalSec: 2, Bps: []float64{1e6, 1e6, 1e6}}
	if tr.Duration() != 6 {
		t.Fatalf("duration = %g, want 6", tr.Duration())
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{ProfileStationary, ProfileWalking, ProfileDriving} {
		cfg, err := ProfileConfig(p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if p.String() == "" {
			t.Fatalf("%v: empty name", p)
		}
		tr, err := Generate(500, cfg, 9)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
	if _, err := ProfileConfig(Profile(42)); err == nil {
		t.Fatal("want error for unknown profile")
	}
	if Profile(42).String() == "" {
		t.Fatal("unknown profile should still print")
	}
}

func TestProfileDynamicsOrdering(t *testing.T) {
	// Driving must be more volatile and slower on average than stationary.
	gen := func(p Profile) *Trace {
		cfg, err := ProfileConfig(p)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Generate(2000, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	stat := gen(ProfileStationary)
	drive := gen(ProfileDriving)
	if stat.Mean() <= drive.Mean() {
		t.Fatalf("stationary mean %g not above driving %g", stat.Mean(), drive.Mean())
	}
	cv := func(tr *Trace) float64 {
		var mean, sq float64
		for _, b := range tr.Bps {
			mean += b
		}
		mean /= float64(len(tr.Bps))
		for _, b := range tr.Bps {
			sq += (b - mean) * (b - mean)
		}
		return (sq / float64(len(tr.Bps))) / (mean * mean)
	}
	if cv(stat) >= cv(drive) {
		t.Fatalf("stationary variability %g not below driving %g", cv(stat), cv(drive))
	}
}
