// Ptile analysis: a walkthrough of the paper's Ptile construction pipeline
// (Section IV-A) — clustering viewing centers with Algorithm 1, building the
// popularity tiles, and reporting the coverage statistics behind Figs. 6–8.
package main

import (
	"fmt"
	"log/slog"
	"os"
	"strings"
	"text/tabwriter"

	"ptile360"
)

func main() {
	if err := run(); err != nil {
		slog.Error("ptileanalysis failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	sys, err := ptile360.NewSystem(ptile360.FullScale())
	if err != nil {
		return err
	}

	// Inspect the constructed catalogue of an exploring video directly.
	prep, err := sys.PrepareVideo(8)
	if err != nil {
		return err
	}
	fmt.Printf("video %d (%s): %d segments\n", prep.Profile.ID, prep.Profile.Name, len(prep.Catalog.Content))

	counts := map[int]int{}
	var coverage float64
	var maxArea float64
	for seg := range prep.Catalog.Ptiles {
		n := len(prep.Catalog.Ptiles[seg])
		if n > 3 {
			n = 3
		}
		counts[n]++
		coverage += prep.Catalog.Coverage[seg]
		for _, pt := range prep.Catalog.Ptiles[seg] {
			if a := pt.Rect.Area(); a > maxArea {
				maxArea = a
			}
		}
	}
	total := float64(len(prep.Catalog.Ptiles))
	fmt.Printf("  segments with 1 Ptile: %.0f%%, 2 Ptiles: %.0f%%, 3+: %.0f%%\n",
		100*float64(counts[1])/total, 100*float64(counts[2])/total, 100*float64(counts[3])/total)
	fmt.Printf("  mean training-user coverage: %.1f%% (paper: >80%% for exploring videos)\n", 100*coverage/total)
	fmt.Printf("  largest Ptile: %.0f%% of the panorama\n\n", 100*maxArea/(360*180))

	// The aggregate experiments behind Figs. 6, 7 and 8 via the experiment
	// registry (quick scale keeps this example fast).
	for _, name := range []string{"fig6", "fig7", "fig8"} {
		tables, err := ptile360.RunExperiment(name, ptile360.QuickScale())
		if err != nil {
			return err
		}
		for _, tbl := range tables {
			printTable(tbl)
		}
	}
	return nil
}

func printTable(tbl ptile360.Table) {
	fmt.Printf("== %s ==\n", tbl.Title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(tbl.Columns, "\t"))
	for _, row := range tbl.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	if err := w.Flush(); err != nil {
		slog.Error("table render failed", "err", err)
	}
	fmt.Println()
}
