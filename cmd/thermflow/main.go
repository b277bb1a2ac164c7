// Command thermflow runs the full analysis pipeline of the paper's Figure 2
// on a gate-level design: placement at a chosen utilization, random-vector
// logic simulation for switching activity, power estimation, steady-state
// thermal simulation on the 3-D RC grid, and hotspot localization.
//
// The design can be read from a Verilog-lite netlist (see cmd/benchgen) or
// generated on the fly with -bench. Results are printed as a report; the
// power and thermal maps, the placement (DEF-lite) and the thermal network
// (SPICE deck) can optionally be written to files.
//
// With -strategy it is also the paper's "area management tool": one
// post-placement temperature-reduction strategy (default utilization
// relaxation, empty row insertion or hotspot wrapper) is applied to the
// baseline at the requested area overhead, and the peak rise, area overhead
// and temperature-derated critical path are reported before and after; -def
// then writes the optimized placement.
//
// Usage:
//
//	thermflow -bench paper -workload scattered -util 0.85
//	thermflow -netlist design.v -lib library.lib -workload uniform:0.3 \
//	          -def out.def -thermal-map thermal.txt -power-map power.txt
//	thermflow -bench paper -workload scattered -strategy eri -rows 20
//	thermflow -bench paper -workload scattered -strategy hw -overhead 0.16 -def hw.def
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/core"
	"thermplace/internal/def"
	"thermplace/internal/fault"
	"thermplace/internal/flow"
	"thermplace/internal/netlist"
	"thermplace/internal/spice"
	"thermplace/internal/thermal"
	"thermplace/internal/timing"
)

func main() {
	var (
		netlistPath = flag.String("netlist", "", "Verilog-lite netlist to analyze (alternative to -bench)")
		libPath     = flag.String("lib", "", "Liberty-lite cell library (defaults to the built-in 65nm library)")
		benchName   = flag.String("bench", "paper", "built-in benchmark to generate when no netlist is given: paper or small")
		workload    = flag.String("workload", "scattered", "workload: scattered, concentrated, or uniform:<activity>")
		util        = flag.Float64("util", 0.85, "placement utilization factor")
		cycles      = flag.Int("cycles", 128, "random simulation cycles for activity extraction")
		seed        = flag.Int64("seed", 1, "random stimulus seed")
		gridN       = flag.Int("grid", 40, "thermal grid resolution per side (the paper uses 40)")
		defOut      = flag.String("def", "", "write the placement (with -strategy, the optimized one) as DEF-lite to this path")
		spiceOut    = flag.String("spice", "", "write the thermal RC network as a SPICE deck to this path")
		thermalOut  = flag.String("thermal-map", "", "write the thermal map (matrix of degrees C) to this path")
		powerOut    = flag.String("power-map", "", "write the power map (matrix of watts per cell) to this path")
		heat        = flag.Bool("heatmap", false, "print an ASCII heat map of the die to stdout")
		strategyStr = flag.String("strategy", "", "apply one strategy to the baseline and report before/after: default, eri or hw")
		overhead    = flag.Float64("overhead", 0.16, "with -strategy, target fractional area overhead (default/hw, and eri when -rows is 0)")
		rows        = flag.Int("rows", 0, "with -strategy eri, empty rows to insert (0 derives the count from -overhead)")
		withSweep   = flag.Bool("sweep", false, "additionally run the Figure 6 efficiency sweep on this design/workload")
		adaptive    = flag.Bool("adaptive", false, "with -sweep, run the two-phase multi-fidelity sweep: densify the overhead grid, triage candidates on coarse-grid estimates, measure only the estimated Pareto front exactly")
		gridScale   = flag.Int("grid-scale", 4, "with -adaptive, densification factor of the overhead grid")
		margin      = flag.Float64("margin", 0.25, "with -adaptive, triage safety margin as a fraction of the estimated rise range (on the paper design over the Figure 6 range, 0.25 kept the exact front and 64-72 of 72 candidates at the default grid scale; 0.1 lost front points; see README)")
		timeout     = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit); Ctrl-C also cancels cleanly")
	)
	flag.Parse()
	if math.IsNaN(*overhead) || math.IsInf(*overhead, 0) {
		fatal(fmt.Errorf("bad -overhead %g: want a finite area overhead", *overhead))
	}
	if *rows < 0 {
		fatal(fmt.Errorf("bad -rows %d: want a non-negative row count", *rows))
	}

	// A SIGINT/SIGTERM (or the -timeout deadline) cancels the analysis
	// pipeline cooperatively: in-flight thermal solves abort within a few CG
	// iterations and every worker goroutine drains before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	lib, err := loadLibrary(*libPath)
	if err != nil {
		fatal(err)
	}
	design, err := loadDesign(*netlistPath, *benchName, lib)
	if err != nil {
		fatal(err)
	}
	wl, err := parseWorkload(*workload, *netlistPath == "" && *benchName == "small")
	if err != nil {
		fatal(err)
	}
	var strategy core.Strategy
	if *strategyStr != "" {
		if strategy, err = core.ParseStrategy(*strategyStr); err != nil {
			fatal(err)
		}
	}

	cfg := flow.DefaultConfig()
	cfg.Utilization = *util
	cfg.SimCycles = *cycles
	cfg.Seed = *seed
	cfg.Thermal.NX = *gridN
	cfg.Thermal.NY = *gridN
	f := flow.New(design, wl, cfg)

	an, err := f.AnalyzeBaselineCtx(ctx)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("design            : %s (%d cells, %d nets)\n", design.Name, design.NumInstances(), design.NumNets())
	fmt.Printf("workload          : %s\n", wl.Name)
	fmt.Printf("core              : %.1f x %.1f um (utilization %.2f)\n",
		an.Placement.FP.Core.W(), an.Placement.FP.Core.H(), an.Placement.Utilization())
	bd := an.Power.TotalBreakdown()
	fmt.Printf("total power       : %.3f mW (internal %.3f, load %.3f, clock %.3f, leakage %.3f)\n",
		an.Power.Total()*1e3, bd.Internal*1e3, bd.Load*1e3, bd.Clock*1e3, bd.Leakage*1e3)
	fmt.Printf("ambient           : %.1f C\n", an.Thermal.AmbientC)
	fmt.Printf("peak temperature  : %.2f C (rise %.2f C)\n", an.Thermal.PeakC, an.Thermal.PeakRise)
	fmt.Printf("mean temperature  : %.2f C\n", an.Thermal.MeanC())
	fmt.Printf("max gradient      : %.3f C between adjacent grid cells\n", an.Thermal.GradientC)
	fmt.Printf("hotspots          : %d\n", len(an.Hotspots))
	for _, h := range an.Hotspots {
		fmt.Printf("  #%d rise %.2f C, area %.0f um^2 (%.1f%% of core), bbox %v\n",
			h.ID, h.PeakRise, h.AreaUm2, 100*h.FracOfArea(an.Placement.FP.Core), h.Rect)
	}

	// The flow already ran temperature-derated timing and congestion as part
	// of the co-analysis (DefaultConfig enables it).
	fmt.Printf("critical path     : %.1f ps (max %.3f GHz, slack %.1f ps at 1 GHz)\n",
		an.Timing.CriticalPathPs, an.Timing.MaxFrequencyGHz, an.Timing.SlackPs)
	fmt.Printf("wirelength        : %.0f um\n", an.Congestion.TotalWirelength)
	fmt.Printf("congestion        : mean %.3f, max %.3f, %d overflowing bins\n",
		an.Congestion.MeanUtilization, an.Congestion.MaxUtilization, an.Congestion.Overflows)
	if *heat {
		fmt.Println("thermal heat map (hot = @):")
		fmt.Print(an.Thermal.Surface.ASCIIHeatmap())
	}

	placed := an.Placement // what -def writes
	if strategy != "" {
		pt := core.Point{Strategy: strategy, Utilization: *util / (1 + *overhead)}
		if strategy == core.StrategyERI {
			pt = core.Point{Strategy: strategy, Rows: *rows}
			if pt.Rows <= 0 {
				pt.Rows = core.RowsForAreaOverhead(an.Placement, *overhead)
			}
		}
		ev, err := core.NewEvaluator(ctx, f)
		if err != nil {
			fatal(err)
		}
		ep, opt, err := ev.Evaluate(ctx, pt, nil)
		if err != nil {
			fatal(err)
		}
		if opt == nil {
			fatal(fmt.Errorf("no tight hotspots at overhead %g; nothing to wrap", *overhead))
		}
		fmt.Printf("strategy          : %v\n", pt)
		fmt.Printf("area overhead     : %.1f%% (core %.1f x %.1f um)\n",
			ep.AreaOverhead*100, opt.Placement.FP.Core.W(), opt.Placement.FP.Core.H())
		fmt.Printf("peak rise         : %.3f C -> %.3f C (reduction %.1f%%)\n",
			an.Thermal.PeakRise, ep.PeakRise, ep.TempReduction*100)
		fmt.Printf("critical path     : %.1f ps -> %.1f ps derated (timing overhead %.2f%%)\n",
			an.Timing.CriticalPathPs, opt.Timing.CriticalPathPs, timing.Overhead(an.Timing, opt.Timing)*100)
		placed = opt.Placement
	}

	if *withSweep {
		var sopts core.SweepOptions
		if *adaptive {
			sopts.Adaptive = &core.AdaptiveOptions{GridScale: *gridScale, Margin: *margin}
		}
		res, err := core.SweepEfficiencyCtx(ctx, f, sopts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("efficiency sweep  : baseline rise %.3f C, %d points\n",
			res.Baseline.Thermal.PeakRise, len(res.Points))
		if ts := res.Triage; ts != nil {
			fmt.Printf("adaptive triage   : %d/%d candidates pruned on coarse estimates (%d coarse + %d exact solves, max est err over survivors %.3f C)\n",
				ts.Candidates-ts.Survivors, ts.Candidates, ts.CoarseSolves, ts.ExactSolves, ts.MaxEstErrC)
		}
		pareto := map[int]bool{}
		for _, idx := range res.ParetoFront() {
			pareto[idx] = true
		}
		for i, pt := range res.Points {
			mark := " "
			if pareto[i] {
				mark = "*" // on the multi-objective Pareto front
			}
			fmt.Printf("  %s %-8s overhead %5.1f%%  reduction %5.1f%%  rise %.3f C  slack %7.1f ps  hpwl %.0f um  overflow %d\n",
				mark, pt.Strategy, pt.AreaOverhead*100, pt.TempReduction*100, pt.PeakRise,
				pt.WorstSlackPs, pt.HPWL, pt.CongestionOverflows)
		}
	}

	if *defOut != "" {
		if err := writeFile(*defOut, func(f *os.File) error { return def.Write(f, placed) }); err != nil {
			fatal(err)
		}
		fmt.Printf("placement written : %s\n", *defOut)
	}
	if *spiceOut != "" {
		circuit, err := thermal.BuildNetwork(an.PowerMap, cfg.Thermal)
		if err != nil {
			fatal(err)
		}
		if err := writeFile(*spiceOut, func(f *os.File) error {
			return spice.WriteDeck(f, circuit, "thermal RC network for "+design.Name)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("spice deck written: %s\n", *spiceOut)
	}
	if *thermalOut != "" {
		if err := os.WriteFile(*thermalOut, []byte(an.Thermal.Surface.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("thermal map       : %s\n", *thermalOut)
	}
	if *powerOut != "" {
		if err := os.WriteFile(*powerOut, []byte(an.PowerMap.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("power map         : %s\n", *powerOut)
	}
}

func loadLibrary(path string) (*celllib.Library, error) {
	if path == "" {
		return celllib.Default65nm(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return celllib.ParseLiberty(f)
}

func loadDesign(netlistPath, benchName string, lib *celllib.Library) (*netlist.Design, error) {
	if netlistPath != "" {
		f, err := os.Open(netlistPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.ParseVerilog(f, lib)
	}
	switch benchName {
	case "paper":
		return bench.Generate(lib, bench.DefaultConfig())
	case "small":
		return bench.Generate(lib, bench.SmallConfig())
	default:
		return nil, fmt.Errorf("unknown built-in benchmark %q (want paper or small)", benchName)
	}
}

// parseWorkload accepts scattered, concentrated, uniform (activity 0.25) and
// uniform:<a>, where a is a per-cycle toggle probability in [0, 1]. On the
// small benchmark the two named workloads are its reduced versions, which
// drive units that benchmark has.
func parseWorkload(s string, small bool) (bench.Workload, error) {
	switch {
	case s == "scattered" && small:
		return bench.SmallScatteredWorkload(), nil
	case s == "scattered":
		return bench.ScatteredSmallHotspots(), nil
	case s == "concentrated" && small:
		return bench.SmallConcentratedWorkload(), nil
	case s == "concentrated":
		return bench.ConcentratedLargeHotspot(), nil
	case s == "uniform":
		return bench.UniformWorkload(0.25), nil
	}
	if a, ok := strings.CutPrefix(s, "uniform:"); ok {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil || !(v >= 0 && v <= 1) {
			return bench.Workload{}, fmt.Errorf("bad uniform activity %q: want a toggle probability in [0, 1]", a)
		}
		return bench.UniformWorkload(v), nil
	}
	return bench.Workload{}, fmt.Errorf("unknown workload %q (want scattered, concentrated, uniform or uniform:<a>)", s)
}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

func fatal(err error) {
	code := fault.ExitCode(err)
	if code == fault.ExitCanceled {
		// A signal or the -timeout deadline fired; the pipeline unwound
		// cleanly (solvers drained, no partial state). ExitCanceled (130)
		// is the conventional interrupted-by-signal exit status.
		fmt.Fprintln(os.Stderr, "thermflow: canceled:", err)
	} else {
		fmt.Fprintln(os.Stderr, "thermflow:", err)
	}
	os.Exit(code)
}
