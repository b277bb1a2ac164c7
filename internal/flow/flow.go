// Package flow wires the individual substrates into the paper's analysis
// pipeline (Figure 2 of the paper): gate-level netlist -> placement ->
// random-vector logic simulation -> power estimation -> thermal simulation
// -> hotspot localization. The post-placement area-management techniques in
// package core consume and produce placements; this package provides the
// "measure the temperature of this placement" half of the loop.
package flow

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"thermplace/internal/bench"
	"thermplace/internal/congestion"
	"thermplace/internal/fault"
	"thermplace/internal/floorplan"
	"thermplace/internal/geom"
	"thermplace/internal/hotspot"
	"thermplace/internal/logicsim"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
	"thermplace/internal/power"
	"thermplace/internal/sparse"
	"thermplace/internal/thermal"
	"thermplace/internal/timing"
)

// Config collects every knob of the analysis pipeline.
type Config struct {
	// Utilization is the baseline placement utilization factor.
	Utilization float64
	// AspectRatio is the core aspect ratio (height / width).
	AspectRatio float64
	// SimCycles is the number of random-vector cycles used to extract
	// switching activity.
	SimCycles int
	// Seed seeds the random stimulus generator.
	Seed int64
	// ClockHz is the clock frequency for power estimation.
	ClockHz float64
	// RefinePasses is the number of detailed-placement improvement passes.
	RefinePasses int
	// Thermal configures the thermal grid and solver; its NX/NY also set
	// the power-map resolution.
	Thermal thermal.Config
	// HotspotOptions tunes hotspot detection on the resulting thermal map.
	HotspotOptions hotspot.Options

	// CoAnalysis extends every analysis with the cross-domain byproducts
	// the paper's claims are stated in: a static timing analysis derated
	// with the solved temperature field, a probabilistic routing-congestion
	// estimate and the total wirelength (Analysis.Timing, .Congestion,
	// .HPWL). DefaultConfig enables it; the zero Config leaves it off.
	CoAnalysis bool
	// Timing configures the co-analysis STA. The zero value derives
	// everything from the flow: timing.DefaultOptions derates (4%/10C cell,
	// 5%/10C wire at a 25 C nominal), the clock period from ClockHz, and
	// the temperature map from each analysis' own solved surface field. A
	// non-zero value is used verbatim, except that a zero ClockPeriodPs is
	// still derived from ClockHz and a nil TemperatureMap still tracks the
	// solved field.
	Timing timing.Options
	// Congestion configures the co-analysis congestion estimate; zero
	// fields select congestion's defaults (a 32x32 grid, 0.2 um pitch, three
	// layers per direction).
	Congestion congestion.Options
}

// DefaultConfig returns the configuration used by the paper-scale
// experiments: 85% starting utilization, 1 GHz, 40x40x9 thermal grid.
func DefaultConfig() Config {
	return Config{
		Utilization:    0.85,
		AspectRatio:    1.0,
		SimCycles:      128,
		Seed:           1,
		ClockHz:        1e9,
		RefinePasses:   1,
		Thermal:        thermal.DefaultConfig(),
		HotspotOptions: hotspot.DefaultOptions(),
		CoAnalysis:     true,
	}
}

// ScenarioConfig maps the knob of a bench.Scenario that reaches the flow —
// the stimulus seed — onto DefaultConfig, so a generated scenario runs the
// pipeline under the conditions it was generated for, at DefaultConfig's
// 1 GHz clock. Utilization, aspect ratio, grid
// resolution and simulation depth keep their defaults; callers tune them on
// the returned Config.
func ScenarioConfig(sc bench.Scenario) Config {
	cfg := DefaultConfig()
	cfg.Seed = sc.Seed
	return cfg
}

// FastConfig returns a reduced configuration (coarser grid, fewer cycles)
// for tests and quick exploration.
func FastConfig() Config {
	cfg := DefaultConfig()
	cfg.SimCycles = 48
	cfg.RefinePasses = 0
	cfg.Thermal.NX = 20
	cfg.Thermal.NY = 20
	return cfg
}

// Flow binds a design and a workload to an analysis configuration and caches
// everything that is reusable across analyses: the workload-dependent (but
// placement-independent) switching activity, the deterministic baseline
// placement, the power estimator and timing analyzer built from them, the
// baseline analysis, and one thermal.Pool of structured-grid solvers. The pool is
// what makes a sweep cheap and concurrent: every ERI/HW/Default point
// reuses an assembled thermal system, and each solve warm-starts from a
// fixed field — its lineage parent's solved field, or else the pool's
// default seed, the first completed solve — rather than "whatever the
// pooled solver computed last". Results are therefore independent of how
// analyses are scheduled across solvers provided the first analysis
// completes before the concurrent calls begin (run AnalyzeBaseline first,
// as the sweep does); when the very first solves race, whichever finishes
// first becomes the seed for the rest.
//
// The caches are built once from Config and never invalidated: set every
// Config field, the thermal injector included, before the first call, and
// build a new Flow for another configuration. Each value but the baseline
// analysis sits behind its own sync.OnceValues (OnceValue for the pool): the
// first caller builds it, concurrent callers wait for that build, and every
// later call returns the same value or the same error. The baseline
// analysis is guarded by a mutex and cached only once one succeeds.
// Activity, Baseline and the analyses are then safe for concurrent use; the
// concurrent sweep in package core relies on this.
//
// The first baseline analysis is the only place the flow itself forks. With
// a live context and GOMAXPROCS of at least 2, AnalyzeBaselineCtx places the
// design and builds the first thermal solver on one core while it simulates
// the activity and builds the power estimator and timing analyzer on the
// other, then analyzes on the filled caches. At GOMAXPROCS 1 it builds each
// value when the analysis first needs it, in sequence. Every output is ==
// either way: each value is a pure function of the design and Config.
type Flow struct {
	Design   *netlist.Design
	Workload bench.Workload
	Config   Config

	// The lazily built values, each made in New: the workload's switching
	// activity (Activity), the baseline placement (Baseline), the power
	// estimator bound to that activity and the configured clock, the timing
	// analyzer (levelized graph and endpoint set) and the pool of idle
	// thermal solvers with their default seed. A failed build stays cached,
	// so a broken netlist is not re-walked per analysis. The baseline
	// placement's net boxes are all cached when it is built, so analyses
	// only read it.
	activity func() (*logicsim.Activity, error)
	baseline func() (*place.Placement, error)
	est      func() (*power.Estimator, error)
	ta       func() (*timing.Analyzer, error)
	pool     func() *thermal.Pool

	// baseMu guards baseAn, the first successful baseline analysis, so
	// repeated AnalyzeBaseline calls (every sweep starts with one) and the
	// zero-delta Reflow no-op return the same *Analysis instead of
	// re-running the pipeline.
	baseMu sync.Mutex
	baseAn *Analysis

	// stats aggregates the robustness counters of every solver the flow
	// runs — Jacobi retries, contained panics, cancellations — and
	// the analyses canceled before their solve. It is wired into each
	// pooled solver unless Config.Thermal.Stats supplies an external
	// collector.
	stats fault.Stats
}

// FaultStats returns a snapshot of the flow's robustness counters: Jacobi
// retries, contained panics and the solves and analyses canceled by their
// context.
func (f *Flow) FaultStats() fault.StatsSnapshot { return f.stats.Snapshot() }

// New creates a flow for the design under the given workload. Nothing is
// built yet: each cached value reads Config when it is first needed.
func New(d *netlist.Design, wl bench.Workload, cfg Config) *Flow {
	f := &Flow{Design: d, Workload: wl, Config: cfg}
	f.activity = sync.OnceValues(f.simulate)
	f.baseline = sync.OnceValues(func() (*place.Placement, error) {
		p, err := f.PlaceAtAspect(f.Config.Utilization, f.Config.AspectRatio)
		if err == nil {
			// Fill every net's cached box now, so analyses only read the
			// shared placement, even the first ones when they run at once.
			p.TotalHPWL()
		}
		return p, err
	})
	f.est = sync.OnceValues(func() (*power.Estimator, error) {
		act, err := f.activity()
		if err != nil {
			return nil, err
		}
		return power.NewEstimator(f.Design, act, f.Config.ClockHz), nil
	})
	f.ta = sync.OnceValues(func() (*timing.Analyzer, error) { return timing.NewAnalyzer(f.Design) })
	f.pool = sync.OnceValue(func() *thermal.Pool { return thermal.NewPool(f.thermalConfig()) })
	return f
}

// Activity returns the switching activity of the design under the flow's
// workload, simulating it on first use and caching the result or its error:
// the paper's "power estimation based on annotated switching activity of
// randomly generated test vectors".
func (f *Flow) Activity() (*logicsim.Activity, error) { return f.activity() }

// simulate runs the random-vector simulation behind Activity.
func (f *Flow) simulate() (*logicsim.Activity, error) {
	if err := checkWorkloadUnits(f.Design, f.Workload); err != nil {
		return nil, err
	}
	act, err := logicsim.RunRandom(f.Design, f.Config.SimCycles, f.Config.Seed, func(port string) float64 {
		unit, _, _ := strings.Cut(port, "_")
		return f.Workload.ActivityFor(unit)
	})
	if err != nil {
		return nil, fmt.Errorf("flow: activity simulation: %w", err)
	}
	return act, nil
}

// checkWorkloadUnits rejects a workload that drives a unit the design
// lacks: that activity would silently apply to nothing.
func checkWorkloadUnits(d *netlist.Design, wl bench.Workload) error {
	var missing []string
	units := d.Units()
	for u := range wl.Activity {
		if !slices.Contains(units, u) {
			missing = append(missing, u)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	slices.Sort(missing)
	return fmt.Errorf("flow: workload %q drives unit(s) %s that design %s lacks",
		wl.Name, strings.Join(missing, ", "), d.Name)
}

// PlaceAtAspect builds a floorplan at the given utilization and core aspect
// ratio and places the design into it (the "Logic and Physical Synthesis"
// box of the paper's flow). The aspect is explicit so the adaptive sweep's
// aspect axis places candidate floorplans without mutating the shared flow
// Config; other callers pass Config.AspectRatio.
func (f *Flow) PlaceAtAspect(utilization, aspect float64) (*place.Placement, error) {
	fp, err := floorplan.New(f.Design, floorplan.Config{
		Utilization: utilization,
		AspectRatio: aspect,
	})
	if err != nil {
		return nil, fmt.Errorf("flow: floorplanning at %.2f utilization: %w", utilization, err)
	}
	p, err := place.PlaceWithoutFillers(f.Design, fp)
	if err != nil {
		return nil, fmt.Errorf("flow: placement at %.2f utilization: %w", utilization, err)
	}
	if f.Config.RefinePasses > 0 {
		place.RefineHPWL(p, f.Config.RefinePasses)
	}
	// Fillers are inserted exactly once, on the final (possibly refined)
	// cell positions; inserting them before refinement would leave stale
	// fillers overlapping the swapped cells.
	place.InsertFillers(p)
	return p, nil
}

// Baseline places the design at the configured baseline utilization,
// building the placement on first use and caching it: placement is
// deterministic for a fixed design and utilization, and every sweep and
// experiment measures against this same compact placement. The cached
// placement is shared; callers must treat it as read-only (the core
// transforms clone before modifying).
func (f *Flow) Baseline() (*place.Placement, error) { return f.baseline() }

// thermalConfig is Config.Thermal with the flow's own robustness counters
// as its collector, unless the caller wired an external one.
func (f *Flow) thermalConfig() thermal.Config {
	tcfg := f.Config.Thermal
	if tcfg.Stats == nil {
		tcfg.Stats = &f.stats
	}
	return tcfg
}

// Close does nothing: a flow's pooled solvers hold no goroutines between
// analyses. It is kept only because the perfbench module calls it.
func (f *Flow) Close() {}

// Analysis is the full measurement of one placement.
type Analysis struct {
	Placement *place.Placement
	Power     *power.Report
	// PowerMap is the power per thermal-grid cell in watts (the paper's
	// power profile, Figure 5 left).
	PowerMap *geom.Grid
	// Thermal is the solved thermal result (Figure 5 right).
	Thermal *thermal.Result
	// Hotspots are the detected hot regions, hottest first.
	Hotspots []hotspot.Hotspot

	// Timing is the static timing report of the placement, derated with the
	// solved temperature field (hot cells slow down). Nil when
	// Config.CoAnalysis is off.
	Timing *timing.Report
	// Congestion is the probabilistic routing-congestion estimate of the
	// placement. Nil when Config.CoAnalysis is off.
	Congestion *congestion.Report
	// HPWL is the total half-perimeter wirelength of the placement in um
	// (zero when Config.CoAnalysis is off).
	HPWL float64

	// state is the full solved temperature field (solver node order, every
	// layer; Thermal holds only the surface), the warm-start seed a lineage
	// child's solve starts from.
	state []float64
}

// PeakRise returns the peak temperature rise above ambient in kelvin.
func (a *Analysis) PeakRise() float64 { return a.Thermal.PeakRise }

// MemoryBytes estimates the retained size of the analysis' numeric payload
// — the solved-state warm-start field, the power map, the surface
// temperature map, the power report's per-instance breakdowns and the
// co-analysis reports — which is what dominates a resident analysis. Shared
// structures (the placement, the design) are deliberately excluded:
// analyses of one design share them, so charging them per entry would
// overcount. The estimate is the accounting unit of the query server's
// result cache.
func (a *Analysis) MemoryBytes() int64 {
	const f64 = 8
	n := f64 * int64(len(a.state)+len(a.PowerMap.Values())+len(a.Thermal.Surface.Values()))
	n += a.Power.MemoryBytes()
	if a.Timing != nil {
		n += a.Timing.MemoryBytes()
	}
	if a.Congestion != nil {
		n += a.Congestion.MemoryBytes()
	}
	n += int64(len(a.Hotspots)) * 128 // rect + cells bookkeeping, coarse
	return n
}

// AnalyzeOptions parameterizes a lineage-aware analysis.
type AnalyzeOptions struct {
	// Parent is the analysis the placement derives from (the baseline for
	// a Default or ERI sweep point, the Default point for the HW point
	// stacked on it). The thermal solve warm-starts from the parent's
	// solved field instead of the baseline's. Nil analyzes the placement
	// standalone (baseline-seeded).
	Parent *Analysis
	// Delta describes how the placement differs from Parent.Placement, as
	// produced by place.Reflow, core.EmptyRowInsertionDelta or
	// core.HotspotWrapperDelta. A sparse delta routes power estimation
	// through Report.Update (re-evaluating only the dirty nets); a full or
	// nil delta re-estimates from scratch. An empty delta on the parent's
	// own placement returns the parent analysis unchanged.
	Delta *place.Delta
}

// AnalyzeWithCtx runs power estimation and thermal simulation on the
// placement and localizes the hotspots of the resulting thermal map. With
// a parent and a delta (the sweep's path) it re-estimates power only where
// the delta is dirty and warm-starts the solve from the parent's field;
// every path yields the from-scratch values bit for bit. The context is
// checked per CG iteration, so a large analysis aborts within milliseconds
// with an error matching fault.ErrCanceled; one that never fires changes
// no bit.
//
// It is safe for concurrent use with one caveat: the power estimate fills
// the placement's lazy net-bounding-box cache, so a *Placement may only be
// shared between concurrent calls once it has been analyzed. The baseline
// placement may be shared from the start: Baseline fills its cache.
// Distinct placements need no coordination.
func (f *Flow) AnalyzeWithCtx(ctx context.Context, p *place.Placement, opts AnalyzeOptions) (*Analysis, error) {
	if par := opts.Parent; par != nil && opts.Delta != nil && opts.Delta.Empty() && par.Placement == p {
		// Zero-delta no-op: the parent already measured this placement.
		return par, nil
	}
	tcfg := f.thermalConfig()
	if in := tcfg.Inject; in.StallAnalyze(in.NextAnalyze()) {
		// Injected stall (Injector.StallAnalyzeN): park until the caller
		// cancels, simulating an analysis that hangs before reaching the
		// solver — the overload the service chaos harness drives. The
		// ctx.Err() check below then reports the cancellation.
		<-ctx.Done()
	}
	if cerr := ctx.Err(); cerr != nil {
		tcfg.Stats.AddCanceled()
		return nil, fmt.Errorf("flow: analysis: %w", fault.Canceled(cerr))
	}
	est, err := f.est()
	if err != nil {
		return nil, err
	}
	var rep *power.Report
	if par := opts.Parent; par != nil && opts.Delta != nil && !opts.Delta.IsFull() && par.Power != nil {
		rep = par.Power.Update(p, opts.Delta)
	} else {
		rep = est.Report(p)
	}
	// Reject a bad thermal grid before binning onto it.
	if err := tcfg.Validate(); err != nil {
		return nil, fmt.Errorf("flow: thermal simulation: %w", err)
	}
	pm := power.Map(rep, p, tcfg.NX, tcfg.NY)
	tcfg.Inject.CorruptPower(pm.Values())
	if err := validatePowerMap(pm); err != nil {
		return nil, err
	}

	// Warm-start from the lineage parent's field; the pool falls back to
	// its default (baseline) seed without one.
	var seed []float64
	if opts.Parent != nil {
		seed = opts.Parent.state
	}
	pool := f.pool()
	s, err := pool.Get(seed)
	if err != nil {
		return nil, fmt.Errorf("flow: thermal simulation: %w", err)
	}
	tres, err := s.SolveCtx(ctx, pm)
	var state []float64
	if err == nil {
		state = s.State()
	}
	pool.Put(s, state)
	if err != nil {
		return nil, fmt.Errorf("flow: thermal simulation: %w", err)
	}
	spots := hotspot.Detect(tres.RiseMap(), f.Config.HotspotOptions)
	an := &Analysis{
		Placement: p,
		Power:     rep,
		PowerMap:  pm,
		Thermal:   tres,
		Hotspots:  spots,
		state:     state,
	}
	if err := f.coAnalyze(an); err != nil {
		return nil, err
	}
	return an, nil
}

// timingOptions resolves Config.Timing for one analysis: a zero value means
// timing.DefaultOptions with the clock period derived from ClockHz, and a
// nil TemperatureMap tracks the analysis' own solved surface field.
func (f *Flow) timingOptions(tres *thermal.Result) timing.Options {
	topts := f.Config.Timing
	if topts == (timing.Options{}) {
		topts = timing.DefaultOptions()
		topts.ClockPeriodPs = 0
	}
	if topts.ClockPeriodPs == 0 {
		if f.Config.ClockHz > 0 {
			topts.ClockPeriodPs = 1e12 / f.Config.ClockHz
		} else {
			topts.ClockPeriodPs = timing.DefaultOptions().ClockPeriodPs
		}
	}
	if topts.TemperatureMap == nil && tres != nil {
		topts.TemperatureMap = tres.Surface
	}
	return topts
}

// coAnalyze fills the analysis' timing, congestion and wirelength fields
// (Config.CoAnalysis). Timing runs once per analysis through the flow's
// cached timing graph, derated with the analysis' own solved surface.
func (f *Flow) coAnalyze(an *Analysis) error {
	if !f.Config.CoAnalysis {
		return nil
	}
	ta, err := f.ta()
	if err != nil {
		return fmt.Errorf("flow: timing analysis: %w", err)
	}
	an.Timing = ta.Analyze(an.Placement, f.timingOptions(an.Thermal))
	an.Congestion = congestion.Estimate(an.Placement, f.Config.Congestion)
	an.HPWL = an.Placement.TotalHPWL()
	return nil
}

// validatePowerMap rejects a power profile that cannot be physical — a NaN,
// infinite or negative per-cell power — before it reaches the thermal
// solver, where it would silently produce a garbage temperature field (CG
// happily "converges" on NaN-free nonsense for a mildly corrupted RHS). This
// is the detection point for the fault harness' corrupted-power injection.
func validatePowerMap(pm *geom.Grid) error {
	for i, v := range pm.Values() {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("flow: %w", &fault.ErrSetup{
				Stage: "power-map",
				Err:   fmt.Errorf("cell %d holds non-physical power %g W", i, v),
			})
		}
	}
	return nil
}

// AnalyzeBaseline places the design at the baseline utilization and
// analyzes the result, caching the analysis: every sweep and experiment
// measures against this same compact placement, and the incremental path's
// zero-delta no-op returns it directly. The cached analysis is shared;
// callers must treat it as read-only.
func (f *Flow) AnalyzeBaseline() (*Analysis, error) {
	return f.AnalyzeBaselineCtx(context.Background())
}

// AnalyzeBaselineCtx is AnalyzeBaseline with cancellation (see
// AnalyzeWithCtx). A cached baseline analysis is returned without
// consulting the context. Until one is cached, a call with a live context
// first builds the placement and the models side by side on up to two
// cores (see Flow), which changes no output, error or cancellation.
func (f *Flow) AnalyzeBaselineCtx(ctx context.Context) (*Analysis, error) {
	return f.analyzeBaseline(ctx, 0)
}

// analyzeBaseline is AnalyzeBaselineCtx with the fork's pool size: workers
// <= 0 takes GOMAXPROCS, and 1 skips the fork.
func (f *Flow) analyzeBaseline(ctx context.Context, workers int) (*Analysis, error) {
	f.baseMu.Lock()
	an := f.baseAn
	f.baseMu.Unlock()
	if an != nil {
		return an, nil
	}
	if ctx.Err() == nil {
		f.buildCold(sparse.NewPool(workers))
	}
	p, err := f.Baseline()
	if err != nil {
		return nil, err
	}
	if an, err = f.AnalyzeWithCtx(ctx, p, AnalyzeOptions{}); err != nil {
		return nil, err
	}
	f.baseMu.Lock()
	defer f.baseMu.Unlock()
	if f.baseAn == nil {
		f.baseAn = an
	}
	return f.baseAn, nil
}

// buildCold fills the caches a first baseline analysis reads, in two lanes
// on the pool when Parallel(2) holds and not at all otherwise. One lane
// places the design and checks one idle thermal solver into the pool, the
// one the first solve then checks out; the other simulates the activity
// and builds the power estimator and, with co-analysis, the timing
// analyzer. Neither lane reads what the other builds. A lane's errors stay
// cached for the analysis that follows, which reports them in its own
// order; an invalid thermal config fails Get here and is reported by that
// analysis' validation.
func (f *Flow) buildCold(lanes *sparse.Pool) {
	if !lanes.Parallel(2) {
		return
	}
	lanes.Run(2, func(lane int) float64 {
		if lane == 0 {
			if _, err := f.baseline(); err == nil {
				pool := f.pool()
				if s, err := pool.Get(nil); err == nil {
					pool.Put(s, nil)
				}
			}
		} else if _, err := f.est(); err == nil && f.Config.CoAnalysis {
			_, _ = f.ta()
		}
		return 0
	})
}

// ReflowAt derives the placement at the given utilization from the cached
// baseline placement (place.Placement.Reflow) instead of re-running global
// placement, applying the same refinement and filler passes as PlaceAtAspect
// so the result is bit-identical to PlaceAtAspect(utilization,
// Config.AspectRatio). At the baseline utilization itself it returns the
// cached baseline placement with an empty delta — the zero-delta no-op
// AnalyzeWithCtx resolves to the cached baseline analysis.
func (f *Flow) ReflowAt(utilization float64) (*place.Placement, *place.Delta, error) {
	base, err := f.Baseline()
	if err != nil {
		return nil, nil, err
	}
	if utilization == f.Config.Utilization {
		return base, new(place.Delta), nil
	}
	p, delta, err := base.Reflow(utilization)
	if err != nil {
		return nil, nil, err
	}
	if f.Config.RefinePasses > 0 {
		place.RefineHPWL(p, f.Config.RefinePasses)
	}
	place.InsertFillers(p)
	return p, delta, nil
}
