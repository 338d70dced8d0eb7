// Energy comparison: the five streaming schemes across the three measured
// phones and both network conditions — the experiment behind Figs. 9 and 10.
package main

import (
	"fmt"
	"log/slog"
	"os"
	"text/tabwriter"

	"ptile360"
)

func main() {
	if err := run(); err != nil {
		slog.Error("energycomparison failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	// The quick scale's traces and seed with 20 viewers, 16 of which train
	// the Ptiles.
	scale := ptile360.QuickScale()
	scale.UsersPerVideo, scale.TrainUsers = 20, 16
	sys, err := ptile360.NewSystem(scale)
	if err != nil {
		return err
	}
	prep, err := sys.PrepareVideo(2)
	if err != nil {
		return err
	}
	fmt.Printf("video %d (%s), %d evaluation users\n\n",
		prep.Profile.ID, prep.Profile.Name, len(prep.Eval))

	schemes := []ptile360.Scheme{
		ptile360.SchemeCtile, ptile360.SchemeFtile, ptile360.SchemeNontile,
		ptile360.SchemePtile, ptile360.SchemeOurs,
	}
	phones := []ptile360.Phone{ptile360.Nexus5X, ptile360.Pixel3, ptile360.GalaxyS20}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "phone\ttrace\tCtile\tFtile\tNontile\tPtile\tOurs\tOurs saving")
	for _, phone := range phones {
		for traceID := 1; traceID <= 2; traceID++ {
			row := fmt.Sprintf("%v\t%d", phone, traceID)
			var ctile, ours float64
			for _, scheme := range schemes {
				// Average the per-segment energy over the evaluation users.
				var energy float64
				for idx := range prep.Eval {
					res, err := sys.Stream(prep, idx, scheme, phone, traceID)
					if err != nil {
						return err
					}
					energy += res.Energy.Total() / float64(res.Segments)
				}
				energy /= float64(len(prep.Eval))
				row += fmt.Sprintf("\t%.0f", energy)
				switch scheme {
				case ptile360.SchemeCtile:
					ctile = energy
				case ptile360.SchemeOurs:
					ours = energy
				}
			}
			row += fmt.Sprintf("\t%.0f%%", 100*(1-ours/ctile))
			fmt.Fprintln(w, row)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("\n(energy in mJ per one-second segment; paper: Ours saves 49.7% vs Ctile on average)")
	return nil
}
