// Quickstart: prepare one video, stream it with the paper's algorithm, and
// print the energy/QoE accounting.
package main

import (
	"fmt"
	"log/slog"
	"os"

	"ptile360"
)

func main() {
	if err := run(); err != nil {
		slog.Error("quickstart failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	// A small system: 16 synthetic viewers, 12 of which train the Ptiles.
	sys, err := ptile360.NewSystem(ptile360.QuickScale())
	if err != nil {
		return err
	}

	// Prepare video 8 ("Freestyle Skiing"): generates head-movement traces,
	// clusters viewing centers, and constructs the per-segment Ptiles.
	prep, err := sys.PrepareVideo(8)
	if err != nil {
		return err
	}
	fmt.Printf("prepared %q: %d segments, %d evaluation users\n",
		prep.Profile.Name, len(prep.Catalog.Content), len(prep.Eval))

	// Stream with the full energy-efficient QoE-aware algorithm (Ours) on a
	// Pixel 3 over the slower network condition (trace 2).
	res, err := sys.Stream(prep, 0, ptile360.SchemeOurs, ptile360.Pixel3, 2)
	if err != nil {
		return err
	}

	fmt.Printf("\nsession (%v, %v, trace 2):\n", res.Scheme, res.Phone)
	fmt.Printf("  segments        %d\n", res.Segments)
	fmt.Printf("  energy          %.1f J (tx %.1f, decode %.1f, render %.1f)\n",
		res.Energy.Total()/1e3, res.Energy.Tx/1e3, res.Energy.Decode/1e3, res.Energy.Render/1e3)
	fmt.Printf("  QoE             %.1f (quality %.1f, variation %.1f, rebuffer %.1f)\n",
		res.QoE.MeanQ, res.QoE.MeanQ0, res.QoE.MeanVariation, res.QoE.MeanRebuffer)
	fmt.Printf("  mean version    q%.1f @ %.1f fps\n", res.MeanQuality, res.MeanFrameRate)
	fmt.Printf("  Ptile-served    %d/%d segments\n", res.PtileSegments, res.Segments)
	fmt.Printf("  stalls          %d (%.2f s)\n", res.QoE.Stalls, res.QoE.StallSec)

	// Compare against the conventional tile baseline.
	base, err := sys.Stream(prep, 0, ptile360.SchemeCtile, ptile360.Pixel3, 2)
	if err != nil {
		return err
	}
	fmt.Printf("\nvs Ctile: %.0f%% energy saving, %+.0f%% QoE\n",
		100*(1-res.Energy.Total()/base.Energy.Total()),
		100*(res.QoE.MeanQ/base.QoE.MeanQ-1))
	return nil
}
