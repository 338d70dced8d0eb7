package ptile360

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"

	"ptile360/internal/experiments"
	"ptile360/internal/obs"
	"ptile360/internal/power"
)

// FullScale returns the paper's evaluation scale: 48 viewers per video, 40
// of them training the Ptiles, over all eight videos.
func FullScale() Scale { return experiments.FullScale() }

// QuickScale returns a reduced workload for smoke runs.
func QuickScale() Scale { return experiments.QuickScale() }

// SetMaxWorkers caps the experiment engine's worker pools (catalogue
// builds, setup builds, and session sweeps). n <= 0 restores the default
// (GOMAXPROCS). Returns the previous cap. Experiment outputs are
// deterministic regardless of the setting.
func SetMaxWorkers(n int) int { return experiments.SetMaxWorkers(n) }

// ExperimentNames lists the table/figure identifiers accepted by
// RunExperiment, sorted by name: the order "all" runs them in.
func ExperimentNames() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// registry maps experiment IDs to their harnesses. Each harness returns the
// printable tables regenerating that table/figure.
var registry = map[string]func(Scale) ([]Table, error){
	"fig1": func(s Scale) ([]Table, error) {
		r, err := experiments.Fig1(8, 30, s)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"table1": func(s Scale) ([]Table, error) {
		r, err := experiments.Table1(s.Seed)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"table2": func(s Scale) ([]Table, error) {
		r, err := experiments.Table2(s.Seed)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"table3": func(Scale) ([]Table, error) {
		return []Table{experiments.Table3()}, nil
	},
	"fig2a": func(Scale) ([]Table, error) {
		r, err := experiments.Fig2a()
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"fig2b": func(Scale) ([]Table, error) {
		r, err := experiments.Fig2b()
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"fig2c": func(Scale) ([]Table, error) {
		r, err := experiments.Fig2c()
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"fig4a": func(s Scale) ([]Table, error) {
		r, err := experiments.Fig4a(s)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"fig4b": func(s Scale) ([]Table, error) {
		r, err := experiments.Fig4b(s.Seed)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"fig5": func(s Scale) ([]Table, error) {
		r, err := experiments.Fig5(s)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"fig6": func(s Scale) ([]Table, error) {
		r, err := experiments.Fig6(s)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"fig7": func(s Scale) ([]Table, error) {
		r, err := experiments.Fig7(s)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"fig8": func(s Scale) ([]Table, error) {
		r, err := experiments.Fig8(s)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"fig9": func(s Scale) ([]Table, error) {
		comp, err := experiments.RunComparison(power.Pixel3, s)
		if err != nil {
			return nil, err
		}
		return append(comp.RenderEnergy(), comp.RenderQoE()...), nil
	},
	"fig10": func(s Scale) ([]Table, error) {
		var out []Table
		for _, phone := range []power.Phone{power.Nexus5X, power.GalaxyS20} {
			comp, err := experiments.RunComparison(phone, s)
			if err != nil {
				return nil, err
			}
			out = append(out, comp.RenderEnergy()...)
		}
		return out, nil
	},
	"projection": func(Scale) ([]Table, error) {
		r, err := experiments.Projection()
		if err != nil {
			return nil, err
		}
		return r.Render(), nil
	},
	"robustness": func(s Scale) ([]Table, error) {
		r, err := experiments.Robustness(s, 3)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"predaccuracy": func(s Scale) ([]Table, error) {
		r, err := experiments.PredAccuracy(s)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"ablations": func(s Scale) ([]Table, error) {
		r, err := experiments.Ablations(s)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
	"fig11": func(s Scale) ([]Table, error) {
		comp, err := experiments.RunComparison(power.Pixel3, s)
		if err != nil {
			return nil, err
		}
		return comp.RenderQoE(), nil
	},
	"netem": func(s Scale) ([]Table, error) {
		r, err := experiments.NetemFig(8, s)
		if err != nil {
			return nil, err
		}
		return []Table{r.Render()}, nil
	},
}

// RunExperiment regenerates one table or figure by its identifier (e.g.
// "table1", "fig9"). The special name "all" runs every experiment.
func RunExperiment(name string, scale Scale) ([]Table, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	if name == "all" {
		names := ExperimentNames()
		experiments.SetProgressTotal(len(names))
		var out []Table
		for _, n := range names {
			experiments.FigureStarted(n)
			tables, err := registry[n](scale)
			if err != nil {
				return nil, fmt.Errorf("ptile360: experiment %s: %w", n, err)
			}
			experiments.FigureDone(n)
			out = append(out, tables...)
		}
		return out, nil
	}
	run, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("ptile360: unknown experiment %q (known: %v, plus \"all\")", name, ExperimentNames())
	}
	experiments.SetProgressTotal(1)
	experiments.FigureStarted(name)
	tables, err := run(scale)
	if err != nil {
		return nil, fmt.Errorf("ptile360: experiment %s: %w", name, err)
	}
	experiments.FigureDone(name)
	return tables, nil
}

// RegisterExperimentMetrics exports the experiment engine's cache counters
// and sweep progress on reg (see internal/experiments.RegisterMetrics).
func RegisterExperimentMetrics(reg *obs.Registry) { experiments.RegisterMetrics(reg) }

// ExperimentProgress reports the current sweep position: the figure now
// running and the done/total counts.
func ExperimentProgress() (current string, done, total int) {
	return experiments.ProgressSnapshot()
}

// WriteTableCSV serializes one experiment table as CSV (header row first) —
// the machine-readable export behind cmd/repro's -csvdir flag.
func WriteTableCSV(w io.Writer, tbl Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"#" + tbl.Title}); err != nil {
		return fmt.Errorf("ptile360: write title: %w", err)
	}
	if err := cw.Write(tbl.Columns); err != nil {
		return fmt.Errorf("ptile360: write header: %w", err)
	}
	for i, row := range tbl.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("ptile360: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SchemeSummary is the aggregated outcome of one scheme in a comparison.
type SchemeSummary struct {
	// Scheme identifies the approach.
	Scheme Scheme
	// EnergyVsCtile is the mean per-video energy normalized to Ctile
	// (1.0 = no saving).
	EnergyVsCtile map[int]float64
	// QoEVsCtile is the mean per-video QoE normalized to Ctile.
	QoEVsCtile map[int]float64
}

// Compare runs the full Figs. 9–11 evaluation on the given phone and
// returns, per scheme, the energy and QoE normalized to the Ctile baseline
// keyed by trace ID (1 and 2). This is the programmatic form of
// RunExperiment("fig9"/"fig11") for callers that want numbers, not tables.
func Compare(phone Phone, scale Scale) ([]SchemeSummary, error) {
	comp, err := experiments.RunComparison(phone, scale)
	if err != nil {
		return nil, err
	}
	var out []SchemeSummary
	for _, scheme := range []Scheme{SchemeCtile, SchemeFtile, SchemeNontile, SchemePtile, SchemeOurs} {
		s := SchemeSummary{
			Scheme:        scheme,
			EnergyVsCtile: make(map[int]float64, 2),
			QoEVsCtile:    make(map[int]float64, 2),
		}
		for traceID := 1; traceID <= 2; traceID++ {
			s.EnergyVsCtile[traceID] = comp.NormalizedEnergy(traceID)[scheme]
			s.QoEVsCtile[traceID] = comp.NormalizedQoE(traceID)[scheme]
		}
		out = append(out, s)
	}
	return out, nil
}
