// Benchmarks that regenerate the paper's evaluation (one benchmark per table
// and figure) plus ablation benches for the design choices called out in
// README.md's design notes. Key result quantities are attached to every
// benchmark run via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports alongside the runtime cost
// of producing them.
package thermplace_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/congestion"
	"thermplace/internal/core"
	"thermplace/internal/flow"
	"thermplace/internal/geom"
	"thermplace/internal/hotspot"
	"thermplace/internal/logicsim"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
	"thermplace/internal/power"
	"thermplace/internal/serve"
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
	f := flow.New(paperBenchmark(b), wl, cfg)
	b.Cleanup(f.Close) // release the pooled solvers' worker goroutines
	return f
}

// BenchmarkFig5_Profiles regenerates Figure 5: the power and thermal
// profiles of test set 1 (four scattered small hotspots) on the 40x40 grid.
// Reported metrics: total power (mW), peak temperature rise (C), detected
// hotspots.
func BenchmarkFig5_Profiles(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	// This series tracks the activity->power->thermal profile pipeline
	// across revisions; the timing/congestion co-analysis is measured
	// separately (BenchmarkFig5_ProfilesCoAnalysis and
	// BenchmarkFig6_CoAnalysisSweep), so it is off here.
	f.Config.CoAnalysis = false
	var an *flow.Analysis
	for i := 0; i < b.N; i++ {
		// Analyze the (cached) baseline placement directly: AnalyzeBaseline
		// now caches the whole analysis, which would turn this loop into a
		// cache hit instead of the power→thermal pipeline it measures.
		p, err := f.Baseline()
		if err != nil {
			b.Fatal(err)
		}
		an, err = f.Analyze(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(an.Power.Total()*1e3, "power_mW")
	b.ReportMetric(an.Thermal.PeakRise, "peak_rise_C")
	b.ReportMetric(float64(len(an.Hotspots)), "hotspots")
	b.ReportMetric(an.Thermal.GradientC, "gradient_C")
}

// BenchmarkFig5_ProfilesCoAnalysis runs the same profile extraction with
// the timing/congestion co-analysis enabled (the DefaultConfig setting),
// making the marginal cost of the derated-timing and congestion reports
// visible next to the plain pipeline above.
func BenchmarkFig5_ProfilesCoAnalysis(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	var an *flow.Analysis
	for i := 0; i < b.N; i++ {
		p, err := f.Baseline()
		if err != nil {
			b.Fatal(err)
		}
		an, err = f.Analyze(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(an.Thermal.PeakRise, "peak_rise_C")
	b.ReportMetric(an.Timing.CriticalPathPs, "critical_path_ps")
	b.ReportMetric(float64(an.Congestion.Overflows), "overflow_bins")
	b.ReportMetric(an.HPWL, "hpwl_um")
}

// BenchmarkFig6_EfficiencySweep regenerates Figure 6: temperature reduction
// versus area overhead for the Default, ERI and HW strategies on the
// scattered-hotspot workload. Reported metrics: the reduction (in percent)
// of each strategy at roughly 16% and 32% area overhead.
//
// The flow is shared across iterations, so from the second sweep on the
// baseline analysis is a cache hit (AnalyzeBaseline caches since the
// incremental pipeline landed) — deliberately so: repeated sweeps on a
// warm flow are the product's what-if-query shape, and the uncached
// baseline pipeline is measured by BenchmarkFig5_Profiles and the
// fresh-flow-per-op BenchmarkScenarioFamilies.
func BenchmarkFig6_EfficiencySweep(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	opts := core.SweepOptions{Overheads: []float64{0.16, 0.32}}
	var res *core.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.SweepEfficiency(f, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	report := func(s core.Strategy, label string) {
		pts := res.PointsFor(s)
		for i, p := range pts {
			suffix := "16"
			if i == 1 {
				suffix = "32"
			}
			b.ReportMetric(p.TempReduction*100, label+suffix+"_pct")
		}
	}
	report(core.StrategyDefault, "default")
	report(core.StrategyERI, "eri")
	report(core.StrategyHW, "hw")
}

// BenchmarkFig6_CoAnalysisSweep is the multi-objective sweep: every point
// carries temperature-derated timing (4%/10C cell, 5%/10C wire above the
// solved surface field) and routing congestion alongside the thermal
// metrics, and the Pareto front is extracted from the joint records. The
// reported metrics pin the co-analysis outputs the smoke run watches.
func BenchmarkFig6_CoAnalysisSweep(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	opts := core.SweepOptions{Overheads: []float64{0.16, 0.32}}
	var res *core.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.SweepEfficiency(f, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	worstSlack, overflows := 0.0, 0
	for _, p := range res.Points {
		if p.WorstSlackPs < worstSlack {
			worstSlack = p.WorstSlackPs
		}
		overflows += p.CongestionOverflows
	}
	b.ReportMetric(float64(len(res.ParetoFront())), "pareto_points")
	b.ReportMetric(worstSlack, "worst_slack_ps")
	b.ReportMetric(float64(overflows), "total_overflow_bins")
}

// BenchmarkFig6_AdaptiveSweep is the two-phase multi-fidelity sweep over a
// design space an order of magnitude denser than Figure 6's: the overhead
// axis is densified 12x and crossed with two floorplan aspect ratios, then
// candidates are triaged on calibrated coarse-grid estimates so only the
// estimated Pareto front (plus a safety margin) is measured exactly. The
// reported metrics pin the triage economics: how many grid candidates were
// enumerated, what fraction never reached the exact phase, and how many
// exact solves the run actually paid for.
func BenchmarkFig6_AdaptiveSweep(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	opts := core.SweepOptions{
		Overheads: []float64{0.16, 0.32},
		Adaptive: &core.AdaptiveOptions{
			GridScale: 12,
			Margin:    0.05,
			Aspects:   []float64{1.0, 2.0},
		},
	}
	var res *core.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.SweepEfficiency(f, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	ts := res.Triage
	b.ReportMetric(float64(ts.Candidates), "grid_candidates")
	b.ReportMetric(100*float64(ts.Candidates-ts.Survivors)/float64(ts.Candidates), "triaged_pct")
	b.ReportMetric(float64(ts.CoarseSolves), "coarse_solves")
	b.ReportMetric(float64(ts.ExactSolves), "exact_solves")
	b.ReportMetric(float64(len(res.ParetoFront())), "pareto_points")
	b.ReportMetric(ts.MaxEstErrC, "max_est_err_c")
}

// BenchmarkTable1_ConcentratedHotspot regenerates Table I: Default versus
// ERI on the single large concentrated hotspot at the paper's two area
// overheads (16.1% with 20 rows and 32.2% with 40 rows).
func BenchmarkTable1_ConcentratedHotspot(b *testing.B) {
	f := paperFlow(b, bench.ConcentratedLargeHotspot())
	var res *core.ConcentratedResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.ConcentratedExperiment(f, core.DefaultConcentratedOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	labels := []string{"default16_pct", "default32_pct", "eri20rows_pct", "eri40rows_pct"}
	for i, row := range res.Rows {
		if i < len(labels) {
			b.ReportMetric(row.TempReduction*100, labels[i])
		}
	}
}

// BenchmarkTimingOverhead measures the claim from Section IV that the
// transforms cost "around 2%" in timing: the critical-path increase of an
// ERI placement at ~32% area overhead over the compact baseline.
func BenchmarkTimingOverhead(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	base, err := f.AnalyzeBaseline()
	if err != nil {
		b.Fatal(err)
	}
	baseT, err := timing.Analyze(paperBenchmark(b), base.Placement, timing.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rows := core.RowsForAreaOverhead(base.Placement, 0.32)
	var overhead float64
	for i := 0; i < b.N; i++ {
		eriP, err := core.EmptyRowInsertion(base.Placement, base.Hotspots, core.DefaultERIOptions(rows))
		if err != nil {
			b.Fatal(err)
		}
		eriT, err := timing.Analyze(paperBenchmark(b), eriP, timing.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		overhead = timing.Overhead(baseT, eriT)
	}
	b.ReportMetric(baseT.CriticalPathPs, "base_path_ps")
	b.ReportMetric(overhead*100, "timing_overhead_pct")
}

// BenchmarkCongestionByproduct quantifies the Section III-A remark that
// empty-row insertion reduces routing congestion in the hotspot region.
func BenchmarkCongestionByproduct(b *testing.B) {
	f := paperFlow(b, bench.ScatteredSmallHotspots())
	base, err := f.AnalyzeBaseline()
	if err != nil {
		b.Fatal(err)
	}
	rows := core.RowsForAreaOverhead(base.Placement, 0.16)
	var before, after *congestion.Report
	for i := 0; i < b.N; i++ {
		before = congestion.Estimate(base.Placement, congestion.DefaultOptions())
		eriP, err := core.EmptyRowInsertion(base.Placement, base.Hotspots, core.DefaultERIOptions(rows))
		if err != nil {
			b.Fatal(err)
		}
		after = congestion.Estimate(eriP, congestion.DefaultOptions())
	}
	region := base.Hotspots[0].Rect
	b.ReportMetric(before.RegionUtilization(region), "hotspot_congestion_before")
	b.ReportMetric(after.RegionUtilization(region), "hotspot_congestion_after")
}

// --- Ablation benches (design choices called out in README.md) -------------

// BenchmarkAblation_Solvers compares the three linear solvers on the same
// mid-sized thermal network (correctness is asserted in the spice and
// thermal unit tests; this reports their cost).
func BenchmarkAblation_Solvers(b *testing.B) {
	pm := geom.NewGrid(20, 20, geom.Rect{Xlo: 0, Ylo: 0, Xhi: 200, Yhi: 200})
	pm.Fill(0.02 / 400)
	for iy := 8; iy < 12; iy++ {
		for ix := 8; ix < 12; ix++ {
			pm.Add(ix, iy, 0.01/16)
		}
	}
	for _, m := range []spice.Method{spice.MethodCG, spice.MethodGaussSeidel, spice.MethodDense} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := thermal.DefaultConfig()
			cfg.NX, cfg.NY = 20, 20
			cfg.Stack = thermal.Stack{
				{Name: "si", Thickness: 60, Conductivity: 110},
				{Name: "active", Thickness: 5, Conductivity: 80, Power: true},
				{Name: "beol", Thickness: 20, Conductivity: 2},
			}
			cfg.Solver = m
			var res *thermal.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = thermal.Solve(pm, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.PeakRise, "peak_rise_C")
			b.ReportMetric(float64(res.Iterations), "iterations")
		})
	}
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
				an, err := f.Analyze(p)
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
				an, err := f.Analyze(p)
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
	relaxed, err := f.PlaceAt(f.Config.Utilization / 1.24)
	if err != nil {
		b.Fatal(err)
	}
	defAn, err := f.Analyze(relaxed)
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
				an, err := f.Analyze(p)
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
			defer f.Close()
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
		if _, err := f.PlaceAt(0.85); err != nil {
			b.Fatal(err)
		}
	}
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
// its default multigrid preconditioner ("fast") and the Jacobi fallback
// ("fast-jacobi") — both cold (fresh solver per solve, the "first sweep
// point" cost) and reused (warm-started re-solve, the steady-state sweep
// cost, multigrid). Each sub-benchmark
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
			scfg := cfg
			scfg.UseSpice = true
			solveOnce(b, func() error { _, err := thermal.Solve(pm, scfg); return err })
		})
		b.Run(fmt.Sprintf("grid=%dx%dx9/fast", n, n), func(b *testing.B) {
			solveOnce(b, func() error { _, err := thermal.Solve(pm, cfg); return err })
		})
		b.Run(fmt.Sprintf("grid=%dx%dx9/fast-jacobi", n, n), func(b *testing.B) {
			jcfg := cfg
			jcfg.Precond = thermal.PrecondJacobi
			solveOnce(b, func() error { _, err := thermal.Solve(pm, jcfg); return err })
		})
		b.Run(fmt.Sprintf("grid=%dx%dx9/fast-reuse", n, n), func(b *testing.B) {
			s, err := thermal.NewSolver(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
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
	f := flow.New(g.Design, g.Workload, cfg)
	b.Cleanup(f.Close)
	return f
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
				if _, err := f.PlaceAt(g.Scenario.Utilization); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioFullFlow runs the whole pipeline — place, simulate,
// power, thermal, hotspots — on large scenarios with the 80x80 and 160x160
// thermal grids, the resolutions the solver benchmarks exercise only in
// isolation.
func BenchmarkScenarioFullFlow(b *testing.B) {
	cases := []struct {
		fam   bench.Family
		cells int
		grid  int
	}{
		{bench.FamilyHotspotCluster, 25000, 80},
		{bench.FamilyWideDatapath, 50000, 160},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("family=%s/cells=%d/grid=%dx%d", c.fam, c.cells, c.grid, c.grid), func(b *testing.B) {
			g := scenarioBenchmark(b, c.fam, c.cells)
			// A fresh flow per iteration: the flow caches placement,
			// activity and pooled solvers, so reusing one would time warm
			// re-solves instead of the full pipeline.
			var an *flow.Analysis
			for i := 0; i < b.N; i++ {
				f := scenarioFlow(b, g, c.grid)
				var err error
				an, err = f.AnalyzeBaseline()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.Design.NumInstances()), "cells")
			b.ReportMetric(an.Thermal.PeakRise, "peak_rise_C")
			b.ReportMetric(float64(len(an.Hotspots)), "hotspots")
		})
	}
}

// BenchmarkScenarioSweep runs the concurrent efficiency sweep on a 25k-cell
// scenario with the 80x80 grid: the sweep engine on a workload well past
// the paper's size.
func BenchmarkScenarioSweep(b *testing.B) {
	g := scenarioBenchmark(b, bench.FamilyHotspotCluster, 25000)
	f := scenarioFlow(b, g, 80)
	opts := core.SweepOptions{Overheads: []float64{0.16, 0.32}}
	var res *core.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.SweepEfficiency(f, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range res.PointsFor(core.StrategyERI) {
		b.ReportMetric(pt.TempReduction*100, fmt.Sprintf("eri%d_pct", int(pt.AreaOverhead*100+0.5)))
	}
}

// BenchmarkScenarioFamilies is the per-family smoke benchmark CI archives:
// one small seed of every family through the full flow on the paper's
// 40x40 grid, reporting the family's thermal signature.
func BenchmarkScenarioFamilies(b *testing.B) {
	for _, fam := range bench.Families() {
		b.Run("family="+string(fam), func(b *testing.B) {
			g := scenarioBenchmark(b, fam, 4000)
			// Fresh flow per iteration so every op is the cold full flow,
			// not a warm cached re-solve.
			var an *flow.Analysis
			for i := 0; i < b.N; i++ {
				f := scenarioFlow(b, g, 0)
				var err error
				an, err = f.AnalyzeBaseline()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.Design.NumInstances()), "cells")
			b.ReportMetric(an.Thermal.PeakRise, "peak_rise_C")
			b.ReportMetric(float64(len(an.Hotspots)), "hotspots")
		})
	}
}

// BenchmarkLogicSimActivity measures random-vector activity extraction on
// the paper benchmark (128 cycles).
func BenchmarkLogicSimActivity(b *testing.B) {
	design := paperBenchmark(b)
	wl := bench.ScatteredSmallHotspots()
	stim := logicsim.RandomStimulus(1, func(port string) float64 {
		return wl.ActivityFor(splitUnit(port))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logicsim.RunRandom(design, 128, stim); err != nil {
			b.Fatal(err)
		}
	}
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
	p, err := f.PlaceAt(0.7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place.InsertFillers(p)
	}
}

// BenchmarkThermserveQueries drives the resident-design query server the way
// its production shape intends — concurrent what-if queries over HTTP/JSON
// against a warm flow — and reports service metrics alongside the runtime
// cost: completed queries per second, the shed rate under the configured
// admission bounds, and the p99 end-to-end latency. The query mix covers the
// cached-baseline fast path, a re-placement analysis, an ERI delta and a
// one-point sweep.
func BenchmarkThermserveQueries(b *testing.B) {
	sc := bench.Scenario{Family: bench.FamilyPaperSynth9, Seed: 7, TargetCells: 800}
	gen, err := sc.Generate(celllib.Default65nm())
	if err != nil {
		b.Fatal(err)
	}
	fcfg := flow.ScenarioConfig(gen.Scenario)
	fcfg.SimCycles = 32
	fcfg.RefinePasses = 0
	fcfg.Thermal.NX, fcfg.Thermal.NY = 16, 16
	srv := serve.NewServer(serve.Config{MaxInFlight: 4, MaxQueue: 8})
	b.Cleanup(srv.Close)
	if err := srv.AddDesign(context.Background(), "bench", gen.Design, gen.Workload, fcfg, nil); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	client := ts.Client()

	paths := []string{
		"/analyze?design=bench&util=" + strconv.FormatFloat(fcfg.Utilization, 'g', -1, 64),
		"/analyze?design=bench&util=0.7",
		"/delta?design=bench&strategy=eri&rows=2",
		"/sweep?design=bench&overheads=0.3",
	}
	var (
		mu              sync.Mutex
		latencies       []float64 // milliseconds
		completed, shed int
		seq             atomic.Int64
	)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			url := ts.URL + paths[int(seq.Add(1))%len(paths)]
			t0 := time.Now()
			resp, err := client.Get(url)
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ms := float64(time.Since(t0)) / float64(time.Millisecond)
			mu.Lock()
			switch resp.StatusCode {
			case http.StatusOK:
				completed++
				latencies = append(latencies, ms)
			case http.StatusServiceUnavailable:
				shed++ // admission bound under concurrent fire: expected
			default:
				mu.Unlock()
				b.Errorf("query %s: unexpected status %d", url, resp.StatusCode)
				return
			}
			mu.Unlock()
		}
	})
	b.StopTimer()
	if completed+shed == 0 {
		b.Fatal("no queries ran")
	}
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(100*float64(shed)/float64(completed+shed), "shed_pct")
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		b.ReportMetric(latencies[len(latencies)*99/100], "p99_ms")
	}
}
