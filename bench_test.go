// Ablation benchmarks for the design choices called out in README.md's
// design notes, plus micro-benchmarks of single layers (placement, thermal
// solve, scenario generation, logic simulation, power, STA, fillers). Key
// result quantities are attached via b.ReportMetric, so
//
//	go test -run NONE -bench=. -benchmem
//
// prints them alongside the runtime cost. The paper's tables and figures are
// regenerated by cmd/reproduce; end-to-end cost is measured by perfbench
// (BENCHMARK.json, bash perfbench/run.sh).
package thermplace_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/core"
	"thermplace/internal/fault"
	"thermplace/internal/floorplan"
	"thermplace/internal/flow"
	"thermplace/internal/geom"
	"thermplace/internal/hotspot"
	"thermplace/internal/logicsim"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
	"thermplace/internal/power"
	"thermplace/internal/spice"
	"thermplace/internal/thermal"
	"thermplace/internal/timing"
)

// The paper-sized benchmark is expensive to generate and place, so it is
// built once and shared (read-only) by all benchmarks.
var (
	paperOnce   sync.Once
	paperDesign *netlist.Design
)

func paperBenchmark(b *testing.B) *netlist.Design {
	b.Helper()
	paperOnce.Do(func() {
		d, err := bench.Generate(celllib.Default65nm(), bench.DefaultConfig())
		if err != nil {
			b.Fatalf("generating paper benchmark: %v", err)
		}
		paperDesign = d
	})
	return paperDesign
}

func paperFlow(b *testing.B, wl bench.Workload) *flow.Flow {
	b.Helper()
	cfg := flow.DefaultConfig()
	return flow.New(paperBenchmark(b), wl, cfg)
}

// --- Ablation benches (design choices called out in README.md) -------------

// BenchmarkAblation_Solvers compares the three SPICE linear solvers and the
// structured-grid fast path on the same mid-sized thermal network
// (correctness is asserted in the spice and thermal unit tests; this reports
// their cost).
func BenchmarkAblation_Solvers(b *testing.B) {
	pm := geom.NewGrid(20, 20, geom.Rect{Xlo: 0, Ylo: 0, Xhi: 200, Yhi: 200})
	pm.Fill(0.02 / 400)
	for iy := 8; iy < 12; iy++ {
		for ix := 8; ix < 12; ix++ {
			pm.Add(ix, iy, 0.01/16)
		}
	}
	cfg := thermal.DefaultConfig()
	cfg.NX, cfg.NY = 20, 20
	cfg.Stack = thermal.Stack{
		{Name: "si", Thickness: 60, Conductivity: 110},
		{Name: "active", Thickness: 5, Conductivity: 80, Power: true},
		{Name: "beol", Thickness: 20, Conductivity: 2},
	}
	circuit, err := thermal.BuildNetwork(pm, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []spice.Method{spice.MethodCG, spice.MethodGaussSeidel, spice.MethodDense} {
		b.Run("spice-"+m.String(), func(b *testing.B) {
			var sol *spice.Solution
			for i := 0; i < b.N; i++ {
				var err error
				if sol, err = circuit.Solve(spice.SolveOptions{Method: m}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sol.Iterations), "iterations")
		})
	}
	b.Run("fast", func(b *testing.B) {
		var res *thermal.Result
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = thermal.Solve(pm, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.PeakRise, "peak_rise_C")
		b.ReportMetric(float64(res.Iterations), "iterations")
	})
}

// BenchmarkAblation_HotspotThreshold sweeps the hotspot-detection threshold
// and reports how many hotspots the scattered workload produces and how much
// an ERI pass targeted at them achieves.
func BenchmarkAblation_HotspotThreshold(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	base, err := f.AnalyzeBaseline()
	if err != nil {
		b.Fatal(err)
	}
	rows := core.RowsForAreaOverhead(base.Placement, 0.24)
	for _, frac := range []float64{0.3, 0.5, 0.7, 0.9} {
		b.Run(fracName(frac), func(b *testing.B) {
			spots := hotspot.Detect(base.Thermal.RiseMap(), hotspot.Options{ThresholdFrac: frac, MinCells: 2})
			if len(spots) == 0 {
				b.Skip("no hotspots at this threshold")
			}
			var red float64
			for i := 0; i < b.N; i++ {
				p, err := core.EmptyRowInsertion(base.Placement, spots, core.DefaultERIOptions(rows))
				if err != nil {
					b.Fatal(err)
				}
				an, err := f.AnalyzeWithCtx(context.Background(), p, flow.AnalyzeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				red = (base.Thermal.PeakRise - an.Thermal.PeakRise) / base.Thermal.PeakRise
			}
			b.ReportMetric(float64(len(spots)), "hotspots")
			b.ReportMetric(red*100, "eri_reduction_pct")
		})
	}
}

func fracName(f float64) string {
	switch f {
	case 0.3:
		return "frac=0.3"
	case 0.5:
		return "frac=0.5"
	case 0.7:
		return "frac=0.7"
	default:
		return "frac=0.9"
	}
}

// BenchmarkAblation_ERIPolicy compares the paper's interleaved empty-row
// insertion against inserting the same rows as one contiguous block.
func BenchmarkAblation_ERIPolicy(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	base, err := f.AnalyzeBaseline()
	if err != nil {
		b.Fatal(err)
	}
	rows := core.RowsForAreaOverhead(base.Placement, 0.24)
	for _, interleave := range []bool{true, false} {
		name := "interleaved"
		if !interleave {
			name = "block"
		}
		b.Run(name, func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				p, err := core.EmptyRowInsertion(base.Placement, base.Hotspots,
					core.ERIOptions{Rows: rows, Interleave: interleave})
				if err != nil {
					b.Fatal(err)
				}
				an, err := f.AnalyzeWithCtx(context.Background(), p, flow.AnalyzeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				red = (base.Thermal.PeakRise - an.Thermal.PeakRise) / base.Thermal.PeakRise
			}
			b.ReportMetric(red*100, "reduction_pct")
		})
	}
}

// BenchmarkAblation_WrapperWidth sweeps the whitespace-ring width of the
// hotspot wrapper on a relaxed placement.
func BenchmarkAblation_WrapperWidth(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	base, err := f.AnalyzeBaseline()
	if err != nil {
		b.Fatal(err)
	}
	relaxed, err := f.PlaceAtAspect(f.Config.Utilization/1.24, f.Config.AspectRatio)
	if err != nil {
		b.Fatal(err)
	}
	defAn, err := f.AnalyzeWithCtx(context.Background(), relaxed, flow.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	spots := hotspot.Detect(defAn.Thermal.RiseMap(), hotspot.Options{ThresholdFrac: 0.75, MinCells: 2})
	if len(spots) == 0 {
		b.Skip("no tight hotspots on the relaxed placement")
	}
	powerOf := func(inst *netlist.Instance) float64 { return defAn.Power.InstancePower(inst) }
	for _, ringRows := range []float64{1, 2, 4} {
		b.Run(ringName(ringRows), func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				opts := core.DefaultWrapperOptions(powerOf)
				opts.RingWidth = ringRows * relaxed.FP.RowHeight
				p, err := core.HotspotWrapper(relaxed, spots, opts)
				if err != nil {
					b.Fatal(err)
				}
				an, err := f.AnalyzeWithCtx(context.Background(), p, flow.AnalyzeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				red = (base.Thermal.PeakRise - an.Thermal.PeakRise) / base.Thermal.PeakRise
			}
			b.ReportMetric(red*100, "reduction_pct")
		})
	}
}

func ringName(rows float64) string {
	switch rows {
	case 1:
		return "ring=1row"
	case 2:
		return "ring=2rows"
	default:
		return "ring=4rows"
	}
}

// BenchmarkAblation_GridResolution compares thermal-grid resolutions against
// the paper's 40x40 choice.
func BenchmarkAblation_GridResolution(b *testing.B) {
	design := paperBenchmark(b)
	wl := bench.ScatteredSmallHotspots()
	for _, n := range []int{20, 40, 64} {
		b.Run(gridName(n), func(b *testing.B) {
			cfg := flow.DefaultConfig()
			cfg.Thermal.NX = n
			cfg.Thermal.NY = n
			f := flow.New(design, wl, cfg)
			var an *flow.Analysis
			for i := 0; i < b.N; i++ {
				var err error
				an, err = f.AnalyzeBaseline()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(an.Thermal.PeakRise, "peak_rise_C")
			b.ReportMetric(float64(len(an.Hotspots)), "hotspots")
		})
	}
}

func gridName(n int) string {
	switch n {
	case 20:
		return "grid=20x20"
	case 40:
		return "grid=40x40"
	default:
		return "grid=64x64"
	}
}

// --- Component micro-benchmarks --------------------------------------------

// BenchmarkPlacement12kCells measures placing the full paper benchmark.
func BenchmarkPlacement12kCells(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	for i := 0; i < b.N; i++ {
		if _, err := f.PlaceAtAspect(0.85, f.Config.AspectRatio); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefineHPWL measures one detailed-placement pass
// (place.RefineHPWL), the pass every cold analysis and every reflowed sweep
// point runs, on the paper benchmark and on cold-50k's 50k-cell
// wide-datapath design, each unrefined at the flow's default utilization
// (0.85). Every iteration refines a fresh clone, made outside the timer.
func BenchmarkRefineHPWL(b *testing.B) {
	run := func(b *testing.B, design *netlist.Design) {
		cfg := flow.DefaultConfig()
		fp, err := floorplan.New(design, floorplan.Config{Utilization: cfg.Utilization, AspectRatio: cfg.AspectRatio})
		if err != nil {
			b.Fatal(err)
		}
		p, err := place.PlaceWithoutFillers(design, fp)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var swaps int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := p.Clone()
			b.StartTimer()
			swaps = place.RefineHPWL(c, 1)
		}
		b.ReportMetric(float64(swaps), "swaps")
	}
	b.Run("paper", func(b *testing.B) { run(b, paperBenchmark(b)) })
	b.Run("cells=50000", func(b *testing.B) {
		run(b, scenarioBenchmark(b, bench.FamilyWideDatapath, 50000).Design)
	})
}

// BenchmarkThermalSolve40x40x9 measures one steady-state solve of the
// paper's thermal grid.
func BenchmarkThermalSolve40x40x9(b *testing.B) {
	cfg := thermal.DefaultConfig()
	pm := geom.NewGrid(cfg.NX, cfg.NY, geom.Rect{Xlo: 0, Ylo: 0, Xhi: 224, Yhi: 226})
	pm.Fill(0.025 / float64(cfg.NX*cfg.NY))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermal.Solve(pm, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalSolveGrid sweeps the thermal grid size and compares the
// legacy SPICE-circuit path against the structured-grid fast path — with
// its spectral preconditioner ("fast") and the Jacobi retry ("fast-jacobi",
// reached through an injected non-convergence of the preconditioned
// attempt, which reports without running, so it also pays the
// preconditioner's setup) — both cold (fresh solver per solve, the "first
// sweep point" cost) and reused (warm-started re-solve, the steady-state
// sweep cost, spectral). Each sub-benchmark
// reports ns/solve and allocs/solve via b.ReportMetric so future PRs have a
// perf trajectory to track. Run with -benchtime 1x for a quick look: the
// spice path at 160x160x9 (230k nodes) takes seconds per solve.
func BenchmarkThermalSolveGrid(b *testing.B) {
	for _, n := range []int{40, 80, 160} {
		cfg := thermal.DefaultConfig()
		cfg.NX, cfg.NY = n, n
		// Keep the cell size at the paper's ~9 um by scaling the die with
		// the grid, and keep total power fixed.
		region := geom.Rect{Xlo: 0, Ylo: 0, Xhi: 9 * float64(n), Yhi: 9 * float64(n)}
		pm := geom.NewGrid(n, n, region)
		pm.Fill(0.015 / float64(n*n))
		for iy := n / 5; iy < n/5+n/8; iy++ {
			for ix := n / 5; ix < n/5+n/8; ix++ {
				pm.Add(ix, iy, 0.010/float64(n/8*n/8))
			}
		}
		solveOnce := func(b *testing.B, solve func() error) {
			b.Helper()
			b.ReportAllocs() // the allocs/op column is allocs/solve: one solve per op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := solve(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/solve")
		}
		b.Run(fmt.Sprintf("grid=%dx%dx9/spice", n, n), func(b *testing.B) {
			solveOnce(b, func() error { _, err := thermal.SolveSpice(pm, cfg, spice.MethodCG); return err })
		})
		b.Run(fmt.Sprintf("grid=%dx%dx9/fast", n, n), func(b *testing.B) {
			solveOnce(b, func() error { _, err := thermal.Solve(pm, cfg); return err })
		})
		b.Run(fmt.Sprintf("grid=%dx%dx9/fast-jacobi", n, n), func(b *testing.B) {
			solveOnce(b, func() error {
				// A fresh injector per solve: its counter is per injector, so
				// each solve's preconditioned attempt is solve 1 and fails.
				jcfg := cfg
				jcfg.Inject = &fault.Injector{FailCGSolveN: 1}
				_, err := thermal.Solve(pm, jcfg)
				return err
			})
		})
		b.Run(fmt.Sprintf("grid=%dx%dx9/fast-reuse", n, n), func(b *testing.B) {
			s, err := thermal.NewSolver(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Solve(pm); err != nil { // prime structure + warm start
				b.Fatal(err)
			}
			solveOnce(b, func() error { _, err := s.Solve(pm); return err })
		})
	}
}

// --- Scenario-family benchmarks --------------------------------------------

// Generated scenarios are expensive at 25k/50k cells, so each (family, size)
// is built once and shared read-only by the scenario benchmarks.
var (
	scenarioMu    sync.Mutex
	scenarioCache = map[string]*bench.Generated{}
)

func scenarioBenchmark(b *testing.B, fam bench.Family, cells int) *bench.Generated {
	b.Helper()
	key := fmt.Sprintf("%s/%d", fam, cells)
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if g, ok := scenarioCache[key]; ok {
		return g
	}
	g, err := bench.Scenario{Family: fam, Seed: 1, TargetCells: cells}.Generate(celllib.Default65nm())
	if err != nil {
		b.Fatalf("generating %s at %d cells: %v", fam, cells, err)
	}
	scenarioCache[key] = g
	return g
}

func scenarioFlow(b *testing.B, g *bench.Generated, gridN int) *flow.Flow {
	b.Helper()
	cfg := flow.ScenarioConfig(g.Scenario)
	if gridN > 0 {
		cfg.Thermal.NX, cfg.Thermal.NY = gridN, gridN
	}
	return flow.New(g.Design, g.Workload, cfg)
}

// BenchmarkScenarioGeneration measures building 25k- and 50k-cell netlists,
// the generator-scaling lever called out on the roadmap.
func BenchmarkScenarioGeneration(b *testing.B) {
	lib := celllib.Default65nm()
	for _, cells := range []int{25000, 50000} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			sc := bench.Scenario{Family: bench.FamilyPaperSynth9, Seed: 1, TargetCells: cells}
			var n int
			for i := 0; i < b.N; i++ {
				g, err := sc.Generate(lib)
				if err != nil {
					b.Fatal(err)
				}
				n = g.Design.NumInstances()
			}
			b.ReportMetric(float64(n), "cells")
		})
	}
}

// BenchmarkScenarioPlacement measures placing 25k- and 50k-cell scenario
// designs (the paper benchmark stops at 12k).
func BenchmarkScenarioPlacement(b *testing.B) {
	for _, cells := range []int{25000, 50000} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			g := scenarioBenchmark(b, bench.FamilyPaperSynth9, cells)
			f := scenarioFlow(b, g, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.PlaceAtAspect(f.Config.Utilization, f.Config.AspectRatio); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogicSimActivity measures random-vector activity extraction
// (128 cycles, seed 1) on the paper benchmark and on the 50k-cell
// wide-datapath scenario, the design cold-50k simulates every op.
func BenchmarkLogicSimActivity(b *testing.B) {
	run := func(b *testing.B, design *netlist.Design, wl bench.Workload) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := logicsim.RunRandom(design, 128, 1, func(port string) float64 {
				return wl.ActivityFor(splitUnit(port))
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("paper", func(b *testing.B) {
		run(b, paperBenchmark(b), bench.ScatteredSmallHotspots())
	})
	b.Run("cells=50000", func(b *testing.B) {
		g := scenarioBenchmark(b, bench.FamilyWideDatapath, 50000)
		run(b, g.Design, g.Workload)
	})
}

func splitUnit(port string) string {
	for i := 0; i < len(port); i++ {
		if port[i] == '_' {
			return port[:i]
		}
	}
	return port
}

// BenchmarkPowerEstimation measures per-cell power estimation plus power-map
// binning on a placed paper benchmark.
func BenchmarkPowerEstimation(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	p, err := f.Baseline()
	if err != nil {
		b.Fatal(err)
	}
	act, err := f.Activity()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := power.Estimate(paperBenchmark(b), p, act, 1e9)
		power.Map(rep, p, 40, 40)
	}
}

// BenchmarkSTA measures a full static timing analysis of the placed paper
// benchmark.
func BenchmarkSTA(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	p, err := f.Baseline()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep *timing.Report
	for i := 0; i < b.N; i++ {
		rep, err = timing.Analyze(paperBenchmark(b), p, timing.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.CriticalPathPs, "critical_path_ps")
}

// BenchmarkBenchmarkGeneration measures building the 12k-cell netlist.
func BenchmarkBenchmarkGeneration(b *testing.B) {
	lib := celllib.Default65nm()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Generate(lib, bench.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFillerInsertion measures whitespace filling with dummy cells.
func BenchmarkFillerInsertion(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	p, err := f.PlaceAtAspect(0.7, f.Config.AspectRatio)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place.InsertFillers(p)
	}
}
