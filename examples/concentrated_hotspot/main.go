// Concentrated hotspot: the paper's second test set (Table I).
//
// The workload drives only the largest unit (the 32x32 multiplier) hard,
// producing a single large concentrated hotspot. The hotspot-wrapper method
// is not suitable for large hotspots, so — exactly as in the paper — the
// example compares only the Default strategy against Empty Row Insertion at
// matched area overheads (the paper uses 16.1% / 20 rows and 32.2% / 40
// rows) and also reports the timing overhead of the transform.
//
// Run with (takes a few seconds):
//
//	go run ./examples/concentrated_hotspot
package main

import (
	"context"
	"fmt"
	"log"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/core"
	"thermplace/internal/flow"
	"thermplace/internal/timing"
)

func main() {
	lib := celllib.Default65nm()
	design, err := bench.Generate(lib, bench.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	workload := bench.ConcentratedLargeHotspot()
	fmt.Printf("benchmark %q: %d cells, workload %q\n", design.Name, design.NumInstances(), workload.Name)

	cfg := flow.DefaultConfig()
	f := flow.New(design, workload, cfg)

	// Table I is the Figure 6 sweep restricted to Default and ERI.
	result, err := core.SweepEfficiencyCtx(context.Background(), f, core.SweepOptions{
		Strategies:   []core.Strategy{core.StrategyDefault, core.StrategyERI},
		Overheads:    []float64{0.161, 0.322},
		ERIRows:      []int{20, 40},
		KeepAnalyses: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	base := result.Baseline
	fmt.Printf("\nbaseline: core %.0f x %.0f um, peak rise %.2f C, hottest hotspot covers %.1f%% of the core\n",
		base.Placement.FP.Core.W(), base.Placement.FP.Core.H(),
		base.Thermal.PeakRise, 100*base.Hotspots[0].FracOfArea(base.Placement.FP.Core))

	fmt.Printf("\n%-9s %-18s %6s %15s %16s\n", "strategy", "core [um x um]", "rows", "area overhead", "temp reduction")
	for _, pt := range result.Points {
		rows := "-"
		if pt.Rows > 0 {
			rows = fmt.Sprintf("%d", pt.Rows)
		}
		c := pt.Placement.FP.Core
		fmt.Printf("%-9s %7.0f x %-9.0f %6s %14.1f%% %15.1f%%\n",
			pt.Strategy, c.W(), c.H(), rows, pt.AreaOverhead*100, pt.TempReduction*100)
	}
	fmt.Println("\npaper Table I for reference: Default 16.1% -> 11.3%, 32.2% -> 20.2%;")
	fmt.Println("ERI 20 rows -> 13.1%, 40 rows -> 28.6%.")

	// Timing overhead of the strongest ERI point, as the paper reports
	// "maximum timing overhead ... around 2%".
	baseTiming, err := timing.Analyze(design, base.Placement, timing.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	eriPlacement, err := core.EmptyRowInsertion(base.Placement, base.Hotspots[:1],
		core.DefaultERIOptions(core.RowsForAreaOverhead(base.Placement, 0.32)))
	if err != nil {
		log.Fatal(err)
	}
	eriTiming, err := timing.Analyze(design, eriPlacement, timing.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncritical path: %.1f ps -> %.1f ps (timing overhead %.2f%%, paper reports about 2%%)\n",
		baseTiming.CriticalPathPs, eriTiming.CriticalPathPs, timing.Overhead(baseTiming, eriTiming)*100)
}
