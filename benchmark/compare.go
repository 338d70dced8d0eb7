package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRecord is one benchmark run read back from its output.
type runRecord struct {
	workload          string
	metrics           map[string]float64
	attempted, failed int
}

// runCompare judges change runs against parent runs:
//
//	benchmark compare [-spec BENCHMARK.json] parent.jsonl change.jsonl
//
// Each file holds the concatenated output of untraced runs; the i-th parent
// and i-th change run of a workload form a pair, so alternate the two sides
// when collecting them. Every end-to-end metric of every workload gets a
// verdict (gain, no regression, regression, unresolved), and a workload
// whose change runs fail a larger share of operations is flagged. The exit
// status is 1 when any row regressed or failed more.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	var spec benchSpec
	if err := readJSON(*specPath, &spec); err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 1
	}
	parent, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 1
	}
	change, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 1
	}

	var names []string
	for w := range parent {
		if len(change[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "benchmark compare: no workload has runs on both sides")
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tpairs\tverdict")
	status := 0
	for _, w := range names {
		p, c := parent[w], change[w]
		for _, m := range spec.EndToEnd {
			pv, cv := column(p, m.Name), column(c, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			verdict, ps, cs := judge(pv, cv, m.Better == "lower", m.Bound)
			if verdict == verdictRegression {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%d\t%s\n",
				w, m.Name, ps.median, ps.q1, ps.q3, m.Unit, cs.median, cs.q1, cs.q3, m.Unit, min(len(pv), len(cv)), verdict)
		}
		// The host probe is context, not a verdict: when it moved as much
		// as the timings did, the host's speed changed, not the program's.
		if pv, cv := column(p, "host.probe_ms"), column(c, "host.probe_ms"); len(pv) > 0 && len(cv) > 0 {
			ps, cs := spreadOf(pv), spreadOf(cv)
			fmt.Fprintf(tw, "%s\thost.probe_ms\t%.4g [%.4g, %.4g] ms\t%.4g [%.4g, %.4g] ms\t\thost speed\n",
				w, ps.median, ps.q1, ps.q3, cs.median, cs.q1, cs.q3)
		}
		pf, cf := failShare(p), failShare(c)
		verdict := verdictSame
		if cf > pf {
			verdict = "more failures: a gain here does not count"
			status = 1
		}
		fmt.Fprintf(tw, "%s\tfailed share\t%.4g\t%.4g\t\t%s\n", w, pf, cf, verdict)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 1
	}
	return status
}

func column(runs []runRecord, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

func failShare(runs []runRecord) float64 {
	var a, f int
	for _, r := range runs {
		a += r.attempted
		f += r.failed
	}
	return perUnit(float64(f), a)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readRuns splits a file of benchmark output into runs by workload. A run
// ends at its summary line; the lines before it name the workload.
func readRuns(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]runRecord{}
	cur := runRecord{metrics: map[string]float64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec struct {
			Workload  string                 `json:"workload"`
			Metric    string                 `json:"metric"`
			Value     float64                `json:"value"`
			Correct   *bool                  `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]summaryItem `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // build chatter or other non-JSON output
		}
		switch {
		case rec.Correct != nil:
			if cur.workload == "" {
				return nil, fmt.Errorf("%s:%d: summary line without a workload", path, line)
			}
			for name, it := range rec.Metrics {
				cur.metrics[name] = it.Value
			}
			cur.attempted, cur.failed = rec.Attempted, rec.Failed
			if !*rec.Correct {
				return nil, fmt.Errorf("%s:%d: run of %s failed its checks", path, line, cur.workload)
			}
			out[cur.workload] = append(out[cur.workload], cur)
			cur = runRecord{metrics: map[string]float64{}}
		case rec.Workload != "":
			cur.workload = rec.Workload
			if rec.Metric != "" {
				cur.metrics[rec.Metric] = rec.Value
			}
		}
	}
	return out, sc.Err()
}
