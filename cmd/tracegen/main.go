// Command tracegen emits the synthetic traces the evaluation runs on: 50 Hz
// head-movement traces per video (the MMSys'17-dataset stand-in) and LTE
// bandwidth traces.
//
// Usage:
//
//	tracegen -kind head -video 8 -users 48 -out video8.csv
//	tracegen -kind lte -samples 400 -trace 2 -out lte2.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/video"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		kind    = flag.String("kind", "head", "trace kind: head or lte")
		videoID = flag.Int("video", 8, "Table III video ID (head traces)")
		users   = flag.Int("users", 48, "number of viewers (head traces)")
		samples = flag.Int("samples", 400, "trace length in seconds (lte traces)")
		traceID = flag.Int("trace", 2, "network condition 1 or 2 (lte traces)")
		seed    = flag.Int64("seed", 42, "random seed; lte traces use seed+99, as the evaluation does")
		out     = flag.String("out", "", "output file (default stdout)")
		doStats = flag.Bool("stats", false, "print dataset statistics instead of the trace (head traces)")
	)
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tracegen: close: %v\n", err)
			}
		}()
		w = f
	}

	switch *kind {
	case "head":
		p, err := video.ProfileByID(*videoID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			return 1
		}
		cfg := headtrace.DefaultGeneratorConfig()
		cfg.NumUsers = *users
		ds, err := headtrace.Generate(p, cfg, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			return 1
		}
		if *doStats {
			st, err := ds.Statistics(1, 10)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
				return 1
			}
			fmt.Fprintf(w, "video %d (%s): %d users, %d samples\n", p.ID, p.Name, st.Users, st.Samples)
			fmt.Fprintf(w, "switching speed: mean %.1f°/s, median %.1f°/s, p95 %.1f°/s\n",
				st.Speed.Mean, st.Speed.P50, st.Speed.P95)
			fmt.Fprintf(w, "above 10°/s: %.0f%% of time (paper Fig. 5: >30%%)\n", 100*st.FracAbove10)
			fmt.Fprintf(w, "mean pairwise viewing-center distance: %.1f°\n", st.MeanPairwiseDist)
			return 0
		}
		if err := headtrace.WriteCSV(w, ds.Traces); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			return 1
		}
	case "lte":
		tr1, tr2, err := lte.StandardTraces(*samples, *seed+99)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			return 1
		}
		tr := tr2
		if *traceID == 1 {
			tr = tr1
		} else if *traceID != 2 {
			fmt.Fprintf(os.Stderr, "tracegen: trace must be 1 or 2\n")
			return 2
		}
		if err := lte.WriteCSV(w, tr); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			return 1
		}
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown kind %q (want head or lte)\n", *kind)
		return 2
	}
	return 0
}
