package ptile360

import (
	"strings"
	"testing"

	"ptile360/internal/sim"
)

func testScale() Scale {
	return Scale{UsersPerVideo: 14, TrainUsers: 10, EvalUsers: 4, Videos: []int{2}, TraceSamples: 250, Seed: 5}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(FullScale()); err != nil {
		t.Fatal(err)
	}
	bad := map[string]func(*Scale){
		"one viewer":             func(s *Scale) { s.UsersPerVideo = 1 },
		"train equal to viewers": func(s *Scale) { s.TrainUsers = s.UsersPerVideo },
		"no trace samples":       func(s *Scale) { s.TraceSamples = 0 },
		"zero value":             func(s *Scale) { *s = Scale{} },
	}
	for name, edit := range bad {
		s := testScale()
		edit(&s)
		if _, err := NewSystem(s); err == nil {
			t.Fatalf("%s: NewSystem accepted %+v", name, s)
		}
	}
}

func TestVideos(t *testing.T) {
	if len(Videos()) != 8 {
		t.Fatalf("Videos() returned %d entries, want 8", len(Videos()))
	}
}

func TestSystemEndToEnd(t *testing.T) {
	sys, err := NewSystem(testScale())
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sys.PrepareVideo(2)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Profile.ID != 2 || prep.Catalog == nil || len(prep.Eval) != 4 {
		t.Fatalf("prepared video malformed: %+v", prep.Profile)
	}
	res, err := sys.Stream(prep, 0, SchemeOurs, Pixel3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments == 0 || res.Energy.Total() <= 0 {
		t.Fatalf("empty session result: %+v", res)
	}
	// Determinism through the façade.
	res2, err := sys.Stream(prep, 0, SchemeOurs, Pixel3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy != res2.Energy {
		t.Fatal("façade sessions not deterministic")
	}
}

func TestSystemStreamValidation(t *testing.T) {
	sys, err := NewSystem(testScale())
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sys.PrepareVideo(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Stream(nil, 0, SchemeOurs, Pixel3, 1); err == nil {
		t.Fatal("want error for nil prep")
	}
	cfg, err := sim.DefaultConfig(SchemeOurs, Pixel3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StreamConfig(nil, prep.Eval[0], 1, cfg); err == nil {
		t.Fatal("want error for nil prep in StreamConfig")
	}
	if _, err := sys.Stream(prep, 99, SchemeOurs, Pixel3, 1); err == nil {
		t.Fatal("want error for bad user index")
	}
	if _, err := sys.Stream(prep, 0, SchemeOurs, Pixel3, 3); err == nil {
		t.Fatal("want error for bad trace ID")
	}
	if _, err := sys.PrepareVideo(99); err == nil {
		t.Fatal("want error for unknown video")
	}
}

func TestTraceAccess(t *testing.T) {
	sys, err := NewSystem(testScale())
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := sys.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := sys.Trace(2)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Mean() <= tr2.Mean() {
		t.Fatal("trace 1 should be faster than trace 2")
	}
}

func TestExperimentNames(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 21 {
		t.Fatalf("registry has %d experiments, want 21", len(names))
	}
	for _, want := range []string{"table1", "table2", "table3", "fig1", "fig2a", "fig2b", "fig2c",
		"fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"ablations", "robustness", "predaccuracy", "projection"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("experiment %q missing from registry", want)
		}
	}
}

func TestRunExperimentQuick(t *testing.T) {
	// Fast experiments at quick scale through the public API.
	for _, name := range []string{"table2", "table3", "fig2a", "fig2b", "fig2c", "fig4b"} {
		tables, err := RunExperiment(name, QuickScale())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", name)
		}
		for _, tbl := range tables {
			if tbl.Title == "" || len(tbl.Columns) == 0 || len(tbl.Rows) == 0 {
				t.Fatalf("%s produced a malformed table: %+v", name, tbl.Title)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("%s: row width %d != %d columns", name, len(row), len(tbl.Columns))
				}
			}
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	_, err := RunExperiment("fig99", QuickScale())
	if err == nil {
		t.Fatal("want error for unknown experiment")
	}
	if !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("error should name the experiment: %v", err)
	}
	bad := QuickScale()
	bad.Videos = nil
	if _, err := RunExperiment("table3", bad); err == nil {
		t.Fatal("want error for invalid scale")
	}
}

func TestWriteTableCSV(t *testing.T) {
	tbl := Table{
		Title:   "Demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"3", "4"}},
	}
	var buf strings.Builder
	if err := WriteTableCSV(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "#Demo\na,b\n1,2\n3,4\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestCompare(t *testing.T) {
	sums, err := Compare(Pixel3, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 5 {
		t.Fatalf("summaries = %d, want 5", len(sums))
	}
	byScheme := map[Scheme]SchemeSummary{}
	for _, s := range sums {
		byScheme[s.Scheme] = s
		for traceID := 1; traceID <= 2; traceID++ {
			if s.EnergyVsCtile[traceID] <= 0 || s.QoEVsCtile[traceID] <= 0 {
				t.Fatalf("%v trace %d: non-positive normalized metrics", s.Scheme, traceID)
			}
		}
	}
	// Ctile normalizes to exactly 1.
	if byScheme[SchemeCtile].EnergyVsCtile[1] != 1 || byScheme[SchemeCtile].QoEVsCtile[2] != 1 {
		t.Fatal("Ctile must normalize to 1")
	}
	// Headline direction survives even at quick scale.
	if byScheme[SchemeOurs].EnergyVsCtile[1] >= 1 {
		t.Fatalf("Ours energy %g not below Ctile", byScheme[SchemeOurs].EnergyVsCtile[1])
	}
}
