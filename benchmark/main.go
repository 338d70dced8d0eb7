// Command benchmark is the ptile360 repository benchmark. It runs one
// workload of the system — the paper-figure sweep, the fleet simulator or the
// sharded HTTP tier — on inputs generated from a seed, checks the outputs,
// and prints one JSON line per metric followed by a summary line:
//
//	go run . -workload fleet-shared -seed 1 -seconds 20 -trace 0
//	go run . -workload http-hot -seed 2 -trace 1 -trace-out spans.jsonl
//	go run . -seed 1                    # every workload, one process each
//	go run . compare parent.jsonl change.jsonl
//
// The benchmark drives the program only through public functions of
// ptile360 and its internal packages; all timing happens here, around those
// calls. See README.md for the workloads, metrics and bounds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"ptile360"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	smoke    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+"); empty runs each in its own process")
		seed     = fs.Int64("seed", 1, "input seed (1 = development, 2 = held out)")
		seconds  = fs.Int("seconds", 20, "length of the timed phase in seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced variant: harness wrappers on, per-layer metrics out")
		traceOut = fs.String("trace-out", "", "file the traced run writes its spans to (default .bench_build/trace-<workload>-<seed>.jsonl)")
		scale    = fs.String("scale", "full", "input size: full, or smoke for a seconds-long self-test")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "benchmark: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	}
	if *scale != "full" && *scale != "smoke" {
		fmt.Fprintf(stderr, "benchmark: -scale must be full or smoke, got %q\n", *scale)
		return 2
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  float64(*seconds),
		traced:   *trace == 1,
		traceOut: *traceOut,
		smoke:    *scale == "smoke",
	}
	if cfg.workload == "" {
		return runEach(args, stdout, stderr)
	}
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (known: %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.traced && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	rep, err := runWorkload(w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := rep.write(stdout, cfg); err != nil {
		fmt.Fprintf(stderr, "benchmark: write report: %v\n", err)
		return 1
	}
	if len(rep.failures) > 0 {
		for _, f := range rep.failures {
			fmt.Fprintf(stderr, "benchmark: %s: check failed: %s\n", cfg.workload, f)
		}
		return 1
	}
	return 0
}

// runEach re-executes this binary once per workload, so every workload runs
// with cold caches and its own peak RSS, and streams each child's output.
func runEach(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: locate executable: %v\n", err)
		return 1
	}
	status := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(self, append([]string{"-workload", name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: workload %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

// metricLine is one printed metric.
type metricLine struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
}

// summary is the last line of a run, the one BENCHMARK.json's consumers read.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, outputs and check failures.
type report struct {
	workload  string
	lines     []metricLine
	outputs   map[string]string
	attempted int
	failed    int
	failures  []string
}

func newReport(workload string) *report {
	return &report{workload: workload, outputs: map[string]string{}}
}

// add records a metric; n is the number of samples behind the value.
func (r *report) add(name string, value float64, unit string, n int) {
	r.lines = append(r.lines, metricLine{Workload: r.workload, Metric: name, Value: value, Unit: unit, N: n})
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) value(name string) (metricLine, bool) {
	for _, l := range r.lines {
		if l.Metric == name {
			return l, true
		}
	}
	return metricLine{}, false
}

// write prints the metadata line, one line per metric, and the summary.
// The summary carries the declared metric set for the mode: every
// end-to-end metric untraced, every per-layer metric traced. A per-layer
// metric the workload never measured reads 0: the workload does not use
// that layer.
func (r *report) write(w io.Writer, cfg config) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"workload": r.workload, "meta": runMeta(cfg), "outputs": r.outputs}); err != nil {
		return err
	}
	for _, l := range r.lines {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	s := summary{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]summaryItem{}}
	for _, d := range defs {
		l, ok := r.value(d.name)
		if !ok && !cfg.traced {
			return fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		s.Metrics[d.name] = summaryItem{Value: l.Value, Unit: d.unit}
	}
	if err := enc.Encode(s); err != nil {
		return err
	}
	return bw.Flush()
}

// runMeta records what a number needs to be compared: the build, the
// machine's parallelism and the run settings.
func runMeta(cfg config) map[string]any {
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	scale := "full"
	if cfg.smoke {
		scale = "smoke"
	}
	return map[string]any{
		"commit":     commit,
		"dirty":      dirty,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.traced,
		"scale":      scale,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// metricDef names a declared metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics (BENCHMARK.json "end_to_end"); every
// workload reports all of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_ref_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's layer metrics (BENCHMARK.json "per_layer").
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"headtrace.generate_s", "s"},
		{"sim.build_catalog_s", "s"},
		{"lte.generate_s", "s"},
		{"fleet.new_s", "s"},
		{"httpstream.tier_up_s", "s"},
		{"sim.step_ns", "ns"},
		{"sim.step_p99_ns", "ns"},
		{"fleet.batch_leader_ratio", "ratio"},
		{"fleet.events_per_seg", "count"},
		{"fleet.heap_push_pop_ns", "ns"},
		{"fleet.advance_ns_per_seg", "ns"},
		{"obs.tsdb_sample_us", "us"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"httpstream.client_predict_us", "us"},
		{"httpstream.client_decide_us", "us"},
		{"httpstream.client_download_us", "us"},
		{"httpstream.client_account_us", "us"},
		{"httpstream.router_self_us", "us"},
		{"httpstream.edge_hit_ratio", "ratio"},
		{"resilience.chain_self_us", "us"},
		{"httpstream.server_us", "us"},
		{"resilience.shed_ratio", "ratio"},
		{"netem.conn_write_us_per_mb", "us/MB"},
		{"httpstream.bytes_per_seg", "B"},
		{"netem.download_us", "us"},
		{"httpstream.requests_per_seg", "count"},
		{"experiments.setup_hit_ratio", "ratio"},
		{"trace.overhead_ratio", "ratio"},
	}
	for _, name := range ptile360.ExperimentNames() {
		defs = append(defs, metricDef{"experiments." + name + "_s", "s"})
	}
	return defs
}()
