// Quickstart: the smallest useful end-to-end run of the library.
//
// It generates a reduced synthetic benchmark, places it, extracts switching
// activity with random vectors, estimates power, solves the steady-state
// thermal network, and finally applies Empty Row Insertion to the hotspots,
// printing the peak temperature before and after. The ERI point is measured
// through core.Evaluator, as every sweep and command measures its points.
// The paper's figures and tables are regenerated by cmd/reproduce.
//
// Run with:
//
//	go run ./examples/quickstart
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
	// 1. A cell library and a gate-level design. Default65nm is the built-in
	//    synthetic 65 nm-class library; SmallConfig is a four-unit benchmark
	//    of a few hundred cells.
	lib := celllib.Default65nm()
	design, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design %q: %d cells, %d nets\n", design.Name, design.NumInstances(), design.NumNets())

	// 2. A workload: the 8-bit multiplier toggles a lot, everything else is
	//    nearly idle, so the multiplier becomes the hotspot.
	workload := bench.Workload{
		Name:     "hot multiplier",
		Activity: map[string]float64{"mult8": 0.6},
		Default:  0.05,
	}

	// 3. The analysis flow: place at 85% utilization, simulate, estimate
	//    power, solve the thermal grid, locate hotspots. The evaluator
	//    analyzes the baseline once and measures design points against it.
	cfg := flow.FastConfig() // a coarser grid than the paper's 40x40, for speed
	f := flow.New(design, workload, cfg)
	ctx := context.Background()
	ev, err := core.NewEvaluator(ctx, f)
	if err != nil {
		log.Fatal(err)
	}
	baseline := ev.Baseline()
	fmt.Printf("baseline: core %.0f x %.0f um, power %.2f mW, peak rise %.2f C, %d hotspot(s)\n",
		baseline.Placement.FP.Core.W(), baseline.Placement.FP.Core.H(),
		baseline.Power.Total()*1e3, baseline.Thermal.PeakRise, len(baseline.Hotspots))

	// 4. The paper's Empty Row Insertion: add ~20% area as empty rows right
	//    at the hotspots and measure again.
	rows := core.RowsForAreaOverhead(baseline.Placement, 0.20)
	pt, after, err := ev.Evaluate(ctx, core.Point{Strategy: core.StrategyERI, Rows: rows}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ERI (%d rows, %.1f%% area overhead): peak rise %.2f C -> %.2f C (%.1f%% reduction)\n",
		rows, pt.AreaOverhead*100, baseline.Thermal.PeakRise, pt.PeakRise, pt.TempReduction*100)

	// 5. A quick look at the thermal map.
	fmt.Println("\nthermal map after ERI (hot = @):")
	fmt.Print(after.Thermal.Surface.ASCIIHeatmap())
}
