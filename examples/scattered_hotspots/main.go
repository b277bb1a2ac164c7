// Scattered hotspots: the paper's first test set (Figure 6).
//
// The paper-sized nine-unit benchmark (about 12,000 cells at 1 GHz) runs a
// workload in which four small units switch heavily, producing four small
// scattered hotspots. The example sweeps the area overhead for the three
// strategies — Default (uniform utilization relaxation), Empty Row Insertion
// and Hotspot Wrapper — and prints the temperature-reduction curves of the
// paper's Figure 6.
//
// Run with (takes a few seconds):
//
//	go run ./examples/scattered_hotspots
package main

import (
	"context"
	"fmt"
	"log"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/core"
	"thermplace/internal/flow"
)

func main() {
	lib := celllib.Default65nm()
	design, err := bench.Generate(lib, bench.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	workload := bench.ScatteredSmallHotspots()
	fmt.Printf("benchmark %q: %d cells, workload %q\n", design.Name, design.NumInstances(), workload.Name)

	cfg := flow.DefaultConfig() // 40x40x9 thermal grid, 85% starting utilization
	f := flow.New(design, workload, cfg)

	result, err := core.SweepEfficiencyCtx(context.Background(), f, core.SweepOptions{
		Overheads: []float64{0.08, 0.16, 0.24, 0.32, 0.40},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nbaseline: peak rise %.2f C above ambient, %d hotspots\n",
		result.Baseline.Thermal.PeakRise, len(result.Baseline.Hotspots))
	for _, h := range result.Baseline.Hotspots {
		fmt.Printf("  hotspot #%d: rise %.2f C, %.1f%% of the core\n",
			h.ID, h.PeakRise, 100*h.FracOfArea(result.Baseline.Placement.FP.Core))
	}

	fmt.Printf("\n%-9s %15s %17s\n", "strategy", "area overhead", "temp reduction")
	for _, s := range []core.Strategy{core.StrategyDefault, core.StrategyERI, core.StrategyHW} {
		for _, p := range result.PointsFor(s) {
			fmt.Printf("%-9s %14.1f%% %16.1f%%\n", p.Strategy, p.AreaOverhead*100, p.TempReduction*100)
		}
		fmt.Println()
	}
	fmt.Println("expected shape (paper Figure 6): ERI and HW above Default, ERI slightly above HW,")
	fmt.Println("and all three improving as the area overhead grows.")
}
