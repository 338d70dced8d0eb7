// Command repro regenerates the tables and figures of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Long sweeps log a
// periodic progress summary, can expose the experiment-engine metrics on an
// ops endpoint (-metrics-addr), and can dump a machine-readable run summary
// (-run-json).
//
// Usage:
//
//	repro -exp fig9            # one experiment at full scale
//	repro -exp all -scale quick -metrics-addr 127.0.0.1:9361
//	repro -exp netem -net netem:bufferbloat,capacity=8 -csvdir out
//	repro -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"text/tabwriter"
	"time"

	"ptile360"
	"ptile360/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		expName      = flag.String("exp", "all", "experiment to run (e.g. table1, fig9, all)")
		scaleName    = flag.String("scale", "full", "workload scale: full or quick")
		seed         = flag.Int64("seed", 42, "random seed")
		list         = flag.Bool("list", false, "list available experiments and exit")
		csvDir       = flag.String("csvdir", "", "also write each table as CSV into this directory")
		workers      = flag.Int("workers", 0, "worker-pool cap for the experiment engine (0 = GOMAXPROCS); outputs are identical for any value")
		netSpec      = flag.String("net", "", "restrict the netem experiment to one packet-level profile: netem:<profile[,key=val...]> (empty sweeps the default profiles)")
		metricsAddr  = flag.String("metrics-addr", "", "ops listener address for /metrics, /debug/pprof, /debug/vars during the run (empty disables)")
		runJSON      = flag.String("run-json", "", "write a JSON run summary (experiments, tables, wall time) to this file")
		summaryEvery = flag.Duration("summary-every", 30*time.Second, "log a sweep progress summary at this interval (0 disables)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile    = flag.String("trace", "", "write a runtime execution trace to this file")
		logCfg       = obs.LogFlags(nil)
	)
	flag.Parse()

	logger, err := logCfg.NewLogger(os.Stderr)
	if err != nil {
		os.Stderr.WriteString("repro: " + err.Error() + "\n")
		return 2
	}

	if *list {
		fmt.Println("available experiments:")
		for _, name := range ptile360.ExperimentNames() {
			fmt.Printf("  %s\n", name)
		}
		fmt.Println("  all")
		return 0
	}

	ptile360.SetMaxWorkers(*workers)

	var scale ptile360.Scale
	switch strings.ToLower(*scaleName) {
	case "full":
		scale = ptile360.FullScale()
	case "quick":
		scale = ptile360.QuickScale()
	default:
		logger.Error("unknown scale", "scale", *scaleName, "want", "full or quick")
		return 2
	}
	scale.Seed = *seed

	if *netSpec != "" {
		spec, ok := strings.CutPrefix(*netSpec, "netem:")
		if !ok {
			logger.Error("bad -net value: want netem:<profile[,key=val...]>", "net", *netSpec)
			return 2
		}
		if *expName != "netem" && *expName != "all" {
			logger.Error("-net restricts only the netem experiment: run it with -exp netem or -exp all", "exp", *expName)
			return 2
		}
		scale.NetemProfile = spec
		if err := scale.Validate(); err != nil {
			logger.Error("bad netem profile", "net", spec, "err", err)
			return 2
		}
	}

	reg := obs.Default()
	ptile360.RegisterExperimentMetrics(reg)
	if *metricsAddr != "" {
		obs.RegisterGoMetrics(reg)
		ops, err := obs.StartOps(*metricsAddr, reg, logger)
		if err != nil {
			logger.Error("ops listener failed", "addr", *metricsAddr, "err", err)
			return 1
		}
		defer ops.Close()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			logger.Error("cpuprofile", "err", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			logger.Error("cpuprofile", "err", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			logger.Error("trace", "err", err)
			return 1
		}
		if err := trace.Start(f); err != nil {
			logger.Error("trace", "err", err)
			return 1
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				logger.Error("memprofile", "err", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				logger.Error("memprofile", "err", err)
			}
		}()
	}

	start := time.Now()
	// Periodic sweep progress, so -exp all at full scale isn't a silent
	// multi-minute wait.
	if *summaryEvery > 0 {
		done := make(chan struct{})
		defer close(done)
		go func() {
			t := time.NewTicker(*summaryEvery)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					cur, fin, total := ptile360.ExperimentProgress()
					logger.Info("sweep progress", "running", cur, "done", fin,
						"total", total, "elapsed_sec", time.Since(start).Seconds())
				}
			}
		}()
	}

	logger.Info("running experiment", "exp", *expName, "scale", strings.ToLower(*scaleName), "seed", *seed)
	tables, err := ptile360.RunExperiment(*expName, scale)
	if err != nil {
		logger.Error("experiment failed", "exp", *expName, "err", err)
		return 1
	}
	for i, tbl := range tables {
		printTable(tbl, logger)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, i, tbl); err != nil {
				logger.Error("csv write failed", "dir", *csvDir, "err", err)
				return 1
			}
		}
	}
	_, fin, total := ptile360.ExperimentProgress()
	logger.Info("sweep complete", "exp", *expName, "tables", len(tables),
		"figures_done", fin, "figures_total", total, "wall_sec", time.Since(start).Seconds())

	if *runJSON != "" {
		if err := writeRunSummary(*runJSON, *expName, strings.ToLower(*scaleName), *seed, tables, time.Since(start)); err != nil {
			logger.Error("run summary failed", "path", *runJSON, "err", err)
			return 1
		}
		logger.Info("wrote run summary", "path", *runJSON)
	}
	return 0
}

// runSummary is the -run-json payload: what ran, what it produced, and how
// long it took.
type runSummary struct {
	Experiment string         `json:"experiment"`
	Scale      string         `json:"scale"`
	Seed       int64          `json:"seed"`
	WallSec    float64        `json:"wall_sec"`
	Tables     []tableSummary `json:"tables"`
}

type tableSummary struct {
	Title   string `json:"title"`
	Columns int    `json:"columns"`
	Rows    int    `json:"rows"`
}

func writeRunSummary(path, exp, scale string, seed int64, tables []ptile360.Table, wall time.Duration) error {
	s := runSummary{Experiment: exp, Scale: scale, Seed: seed, WallSec: wall.Seconds()}
	for _, tbl := range tables {
		s.Tables = append(s.Tables, tableSummary{Title: tbl.Title, Columns: len(tbl.Columns), Rows: len(tbl.Rows)})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCSV(dir string, idx int, tbl ptile360.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("table_%02d.csv", idx))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := ptile360.WriteTableCSV(f, tbl); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printTable(tbl ptile360.Table, logger *slog.Logger) {
	fmt.Printf("\n== %s ==\n", tbl.Title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(tbl.Columns, "\t"))
	for _, row := range tbl.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	if err := w.Flush(); err != nil {
		logger.Error("table render failed", "err", err)
	}
}
