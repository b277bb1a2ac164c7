// Command reproduce regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark:
//
//	fig5    power and thermal profiles of test set 1 (40x40 matrices)
//	fig6    temperature reduction vs area overhead for Default / ERI / HW
//	        (test set 1: four scattered small hotspots)
//	table1  Default vs ERI on a single large concentrated hotspot
//	timing  maximum timing overhead of the transforms (the paper's ~2% claim)
//	        on both test sets
//	congestion  routing-congestion by-product of empty row insertion
//	all     everything above
//
// Absolute temperatures depend on the package calibration (see the design notes in README.md);
// the reproduced quantities are the relative reductions the paper reports.
//
// Usage:
//
//	reproduce -exp all
//	reproduce -exp fig6 -outdir results/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/core"
	"thermplace/internal/fault"
	"thermplace/internal/flow"
	"thermplace/internal/place"
	"thermplace/internal/timing"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to reproduce: fig5, fig6, table1, timing, congestion or all")
		outdir  = flag.String("outdir", "", "optional directory for matrix dumps (fig5)")
		small   = flag.Bool("small", false, "use the reduced benchmark (fast smoke run, smaller effects)")
		gridN   = flag.Int("grid", 40, "thermal grid resolution per side (the paper uses 40)")
		cycles  = flag.Int("cycles", 128, "random simulation cycles for activity extraction")
		seed    = flag.Int64("seed", 1, "random stimulus seed")
		util    = flag.Float64("util", 0.85, "baseline placement utilization")
		timeout = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit); Ctrl-C also cancels cleanly")
	)
	flag.Parse()

	// A SIGINT/SIGTERM (or the -timeout deadline) cancels the analysis
	// pipeline cooperatively: the in-flight thermal solves abort within a few
	// CG iterations and every worker goroutine drains before the process
	// exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	lib := celllib.Default65nm()
	cfgBench := bench.DefaultConfig()
	if *small {
		cfgBench = bench.SmallConfig()
	}
	design, err := bench.Generate(lib, cfgBench)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchmark: %s, %d standard cells, %d nets, clock %.1f GHz\n\n",
		design.Name, design.NumInstances(), design.NumNets(), flow.DefaultConfig().ClockHz/1e9)

	mkFlow := func(wl bench.Workload) *flow.Flow {
		cfg := flow.DefaultConfig()
		cfg.Utilization = *util
		cfg.SimCycles = *cycles
		cfg.Seed = *seed
		cfg.Thermal.NX = *gridN
		cfg.Thermal.NY = *gridN
		return flow.New(design, wl, cfg)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false
	if want("fig5") {
		ran = true
		runFig5(ctx, mkFlow(scatteredWorkload(*small)), *outdir)
	}
	if want("fig6") {
		ran = true
		runFig6(ctx, mkFlow(scatteredWorkload(*small)))
	}
	if want("table1") {
		ran = true
		runTable1(ctx, mkFlow(concentratedWorkload(*small)), *small)
	}
	if want("timing") {
		ran = true
		runTiming(ctx, mkFlow(scatteredWorkload(*small)), 1)
		runTiming(ctx, mkFlow(concentratedWorkload(*small)), 2)
	}
	if want("congestion") {
		ran = true
		runCongestion(ctx, mkFlow(scatteredWorkload(*small)))
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

// scatteredWorkload is the paper's test set 1 (four small scattered
// hotspots), reduced on the small benchmark.
func scatteredWorkload(small bool) bench.Workload {
	if small {
		return bench.SmallScatteredWorkload()
	}
	return bench.ScatteredSmallHotspots()
}

// concentratedWorkload is the paper's test set 2 (one large hotspot),
// reduced on the small benchmark.
func concentratedWorkload(small bool) bench.Workload {
	if small {
		return bench.SmallConcentratedWorkload()
	}
	return bench.ConcentratedLargeHotspot()
}

func runFig5(ctx context.Context, f *flow.Flow, outdir string) {
	fmt.Println("=== Figure 5: power and thermal profiles of test set 1 ===")
	an, err := f.AnalyzeBaselineCtx(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("total power %.2f mW over %.0f x %.0f um; peak rise %.2f C; %d hotspots\n",
		an.Power.Total()*1e3, an.Placement.FP.Core.W(), an.Placement.FP.Core.H(),
		an.Thermal.PeakRise, len(an.Hotspots))
	fmt.Println("\npower profile (W per grid cell, hot = @):")
	fmt.Print(an.PowerMap.ASCIIHeatmap())
	fmt.Println("\nthermal profile (degrees C, hot = @):")
	fmt.Print(an.Thermal.Surface.ASCIIHeatmap())
	for _, h := range an.Hotspots {
		fmt.Printf("hotspot #%d: rise %.2f C, %.1f%% of core, bbox %v\n",
			h.ID, h.PeakRise, 100*h.FracOfArea(an.Placement.FP.Core), h.Rect)
	}
	if outdir != "" {
		if err := os.MkdirAll(outdir, 0o755); err != nil {
			fatal(err)
		}
		power := filepath.Join(outdir, "fig5_power_map.txt")
		therm := filepath.Join(outdir, "fig5_thermal_map.txt")
		if err := os.WriteFile(power, []byte(an.PowerMap.String()), 0o644); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(therm, []byte(an.Thermal.Surface.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("matrices written to %s and %s\n", power, therm)
	}
	fmt.Println()
}

func runFig6(ctx context.Context, f *flow.Flow) {
	fmt.Println("=== Figure 6: thermal efficiency of the various techniques (test set 1) ===")
	res, err := core.SweepEfficiencyCtx(ctx, f, core.DefaultSweepOptions())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("baseline: utilization %.2f, peak rise %.3f C, %d hotspots\n\n",
		res.BaselineUtilization, res.Baseline.Thermal.PeakRise, len(res.Baseline.Hotspots))
	pareto := map[int]bool{}
	for _, idx := range res.ParetoFront() {
		pareto[idx] = true
	}
	fmt.Printf("%-11s %14s %18s %12s %12s %12s %10s\n",
		"strategy", "area overhead", "temp reduction", "peak rise", "worst slack", "hpwl", "overflow")
	for _, s := range []core.Strategy{core.StrategyDefault, core.StrategyERI, core.StrategyHW} {
		for i, p := range res.Points {
			if p.Strategy != s {
				continue
			}
			mark := " "
			if pareto[i] {
				mark = "*" // on the multi-objective Pareto front
			}
			rows := ""
			if p.Rows > 0 {
				rows = fmt.Sprintf("  (%d rows)", p.Rows)
			}
			fmt.Printf("%s %-9s %13.1f%% %17.1f%% %10.3f C %9.1f ps %9.0f um %10d%s\n",
				mark, p.Strategy, p.AreaOverhead*100, p.TempReduction*100, p.PeakRise,
				p.WorstSlackPs, p.HPWL, p.CongestionOverflows, rows)
		}
	}
	fmt.Println("\n* = on the Pareto front over (area, peak rise, critical path, hpwl, overflow).")
	fmt.Println("paper reference (shape): both ERI and HW curves lie above Default, ERI")
	fmt.Println("slightly above HW, and effectiveness grows with the area overhead.")
	fmt.Println()
}

// table1Overheads are the area overheads of Table I's points.
var table1Overheads = []float64{0.161, 0.322}

// table1Points measures Table I's points through the evaluator, as the Fig6
// sweep does: Default at each of table1Overheads, then ERI at the paper's 20
// and 40 rows. The paper's literal row counts only make sense on the
// paper-sized benchmark, so on the reduced one (small) ERI takes the row
// counts of the same overheads. HW is left out: the wrapper "is not suitable
// for large hotspots", exactly as in the paper. Each point keeps its
// analysis, for its core W x H.
func table1Points(ctx context.Context, f *flow.Flow, ev *core.Evaluator, small bool) ([]core.EfficiencyPoint, error) {
	var pts []core.Point
	for _, ov := range table1Overheads {
		pts = append(pts, core.Point{Strategy: core.StrategyDefault, Utilization: f.Config.Utilization / (1 + ov)})
	}
	for i, rows := range []int{20, 40} {
		if small {
			rows = core.RowsForAreaOverhead(ev.Baseline().Placement, table1Overheads[i])
		}
		pts = append(pts, core.Point{Strategy: core.StrategyERI, Rows: rows})
	}
	out := make([]core.EfficiencyPoint, len(pts))
	for i, pt := range pts {
		ep, an, err := ev.Evaluate(ctx, pt, nil)
		if err != nil {
			return nil, err
		}
		ep.Analysis = an
		out[i] = *ep
	}
	return out, nil
}

func runTable1(ctx context.Context, f *flow.Flow, small bool) {
	fmt.Println("=== Table I: concentrated hotspot, Default vs Empty Row Insertion ===")
	ev, err := core.NewEvaluator(ctx, f)
	if err != nil {
		fatal(err)
	}
	points, err := table1Points(ctx, f, ev, small)
	if err != nil {
		fatal(err)
	}
	base := ev.Baseline()
	fmt.Printf("baseline core %.0f x %.0f um, peak rise %.3f C\n\n",
		base.Placement.FP.Core.W(), base.Placement.FP.Core.H(), base.Thermal.PeakRise)
	fmt.Printf("%-9s %-16s %6s %15s %16s\n", "strategy", "area [um x um]", "rows", "area overhead", "temp reduction")
	for _, p := range points {
		rows := "-"
		if p.Rows > 0 {
			rows = fmt.Sprintf("%d", p.Rows)
		}
		c := p.Analysis.Placement.FP.Core
		fmt.Printf("%-9s %6.0f x %-8.0f %6s %14.1f%% %15.1f%%\n",
			p.Strategy, c.W(), c.H(), rows, p.AreaOverhead*100, p.TempReduction*100)
	}
	fmt.Println("\npaper reference: Default 16.1% -> 11.3%, 32.2% -> 20.2%;")
	fmt.Println("                 ERI 20 rows (16.1%) -> 13.1%, 40 rows (32.2%) -> 28.6%.")
	fmt.Println()
}

// timingOverhead is the area overhead of the Default and HW placements the
// timing experiment compares: the Fig6 sweep's 16% point.
const timingOverhead = 0.16

// sweepDefaultAndHW derives the Default and HW placements at timingOverhead
// through core.Evaluator, exactly as the Fig6 sweep does: Default reflows
// the baseline, and HW wraps that Default point's tight hotspots. hw is nil
// when the Default point has no tight hotspot to wrap.
func sweepDefaultAndHW(ctx context.Context, f *flow.Flow) (def, hw *place.Placement, err error) {
	ev, err := core.NewEvaluator(ctx, f)
	if err != nil {
		return nil, nil, err
	}
	util := f.Config.Utilization / (1 + timingOverhead)
	_, defAn, err := ev.Evaluate(ctx, core.Point{Strategy: core.StrategyDefault, Utilization: util}, nil)
	if err != nil {
		return nil, nil, err
	}
	_, hwAn, err := ev.Evaluate(ctx, core.Point{Strategy: core.StrategyHW, Utilization: util}, defAn)
	if err != nil || hwAn == nil {
		return defAn.Placement, nil, err
	}
	return defAn.Placement, hwAn.Placement, nil
}

// eriPoint measures the ERI point with the given row count through the
// evaluator, exactly as the Fig6 sweep does.
func eriPoint(ctx context.Context, ev *core.Evaluator, rows int) *flow.Analysis {
	_, an, err := ev.Evaluate(ctx, core.Point{Strategy: core.StrategyERI, Rows: rows}, nil)
	if err != nil {
		fatal(err)
	}
	return an
}

// runTiming times the baseline of one test set, two ERI placements and the
// sweep's Default and HW placements with one timing graph. Timing is not
// derated: the paper's ~2% is the effect of moving cells, not of
// temperature.
func runTiming(ctx context.Context, f *flow.Flow, testSet int) {
	fmt.Printf("=== Timing overhead of the transforms, test set %d (paper: around 2%%) ===\n", testSet)
	ev, err := core.NewEvaluator(ctx, f)
	if err != nil {
		fatal(err)
	}
	base := ev.Baseline()
	ta, err := timing.NewAnalyzer(f.Design)
	if err != nil {
		fatal(err)
	}
	opts := timing.DefaultOptions()
	baseT := ta.Analyze(base.Placement, opts)
	fmt.Printf("baseline critical path: %.1f ps (max %.3f GHz)\n", baseT.CriticalPathPs, baseT.MaxFrequencyGHz)

	for _, ov := range []float64{0.161, 0.322} {
		rows := core.RowsForAreaOverhead(base.Placement, ov)
		eriT := ta.Analyze(eriPoint(ctx, ev, rows).Placement, opts)
		fmt.Printf("ERI (%d rows, %4.1f%% area): %.1f ps  -> overhead %.2f%%\n",
			rows, ov*100, eriT.CriticalPathPs, timing.Overhead(baseT, eriT)*100)
	}

	defP, hwP, err := sweepDefaultAndHW(ctx, f)
	if err != nil {
		fatal(err)
	}
	if hwP == nil {
		fmt.Printf("HW (%.0f%% area)         : no tight hotspot on its Default point; nothing to wrap\n\n", timingOverhead*100)
		return
	}
	defT, hwT := ta.Analyze(defP, opts), ta.Analyze(hwP, opts)
	fmt.Printf("HW (vs its default)   : %.1f ps  -> overhead %.2f%%\n",
		hwT.CriticalPathPs, timing.Overhead(defT, hwT)*100)
	fmt.Println()
}

// runCongestion compares the congestion reports of the baseline analysis
// and of the sweep's ERI point at 16% area overhead.
func runCongestion(ctx context.Context, f *flow.Flow) {
	fmt.Println("=== Congestion by-product of empty row insertion (Section III-A) ===")
	ev, err := core.NewEvaluator(ctx, f)
	if err != nil {
		fatal(err)
	}
	base := ev.Baseline()
	before := base.Congestion
	after := eriPoint(ctx, ev, core.RowsForAreaOverhead(base.Placement, 0.16)).Congestion
	region := base.Hotspots[0].Rect
	fmt.Printf("%-28s %12s %12s\n", "", "baseline", "after ERI")
	fmt.Printf("%-28s %12.3f %12.3f\n", "mean congestion (die)", before.MeanUtilization, after.MeanUtilization)
	fmt.Printf("%-28s %12.3f %12.3f\n", "max congestion (die)", before.MaxUtilization, after.MaxUtilization)
	fmt.Printf("%-28s %12.3f %12.3f\n", "mean congestion (hotspot)", before.RegionUtilization(region), after.RegionUtilization(region))
	fmt.Printf("%-28s %12d %12d\n", "overflowing bins", before.Overflows, after.Overflows)
	fmt.Println()
}

func fatal(err error) {
	code := fault.ExitCode(err)
	if code == fault.ExitCanceled {
		// A signal or the -timeout deadline fired; the pipeline unwound
		// cleanly (solvers drained, no partial state). ExitCanceled (130)
		// is the conventional interrupted-by-signal exit status.
		fmt.Fprintln(os.Stderr, "reproduce: canceled:", err)
	} else {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
	}
	os.Exit(code)
}
