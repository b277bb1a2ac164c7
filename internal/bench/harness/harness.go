// Package harness runs the entire analysis flow over generated scenarios
// and checks metamorphic, cross-implementation properties instead of golden
// numbers: the structured-grid fast path against the SPICE oracle, the
// spectral preconditioner against the Jacobi retry, warm-started pooled
// solves against cold solves, the concurrent sweep engine against the
// sequential one, the delta-driven sweep against a from-scratch
// re-derivation, and the placer's legality invariants — each of which must
// hold for every design the scenario generator can produce, not just the
// paper's single 12k-cell point.
//
// The harness is the test driver behind `go test ./internal/bench/...` and
// the CI scenario job; it is a normal package (no testing dependency) so
// commands and benchmarks can reuse it.
package harness

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/congestion"
	"thermplace/internal/core"
	"thermplace/internal/fault"
	"thermplace/internal/flow"
	"thermplace/internal/geom"
	"thermplace/internal/hotspot"
	"thermplace/internal/netlist"
	"thermplace/internal/spice"
	"thermplace/internal/thermal"
	"thermplace/internal/timing"
)

// Options tunes how deep the harness drives the flow for one scenario.
type Options struct {
	// Grid is the square thermal-grid resolution (NX = NY). Zero means 20.
	Grid int
	// SimCycles is the random-vector simulation depth. Zero means 48.
	SimCycles int
	// RefinePasses is the number of detailed-placement passes; zero means 1
	// (so the refiner's invariants are exercised), negative disables.
	RefinePasses int
	// Overheads are the sweep area-overhead points. Nil means {0.25}.
	Overheads []float64
	// Workers is the concurrent sweep width compared against Workers=1.
	// Zero means 4.
	Workers int
	// OracleMaxUnknowns bounds the system size for the SPICE-oracle check
	// (the oracle is dense in names and an order of magnitude slower); the
	// check is skipped on larger systems. Zero means 8000.
	OracleMaxUnknowns int
	// TolC is the cross-implementation temperature tolerance in degrees
	// Celsius. Zero means 1e-6.
	TolC float64
	// SkipDeterminism skips the regenerate-and-compare netlist check.
	SkipDeterminism bool
	// SkipSweep skips the sweep checks: sequential versus concurrent, the
	// from-scratch oracle and the adaptive exactness check.
	SkipSweep bool

	// InjectThermalBiasC, when nonzero, deliberately corrupts the baseline
	// fast-path thermal result by this many degrees before the
	// cross-implementation checks run. It exists to test the harness
	// itself: a corrupted solver must make Run fail, proving the checks
	// cannot silently pass.
	InjectThermalBiasC float64
	// CorruptPlacement, when true, deliberately knocks one placed cell off
	// the site grid before the legality check. Like InjectThermalBiasC it
	// exists to prove the harness catches a broken placer.
	CorruptPlacement bool
	// InjectAdaptiveBiasC, when nonzero, deliberately corrupts the adaptive
	// sweep's coarse estimates (core.AdaptiveOptions.InjectEstRiseBiasC) so
	// the triage drops true-front candidates. Like the knobs above it exists
	// to prove the adaptive-front-exactness check cannot silently pass.
	InjectAdaptiveBiasC float64
	// NudgeSweepRise moves the first sweep point's PeakRise by one ulp, and
	// CorruptSweepPlacement moves one cell of the first HW point's placement
	// by a site, before the from-scratch oracle re-derives the sweep. Like
	// the knobs above they exist to prove the oracle compares with == and
	// cannot silently pass.
	NudgeSweepRise        bool
	CorruptSweepPlacement bool
}

func (o Options) normalized() Options {
	if o.Grid == 0 {
		o.Grid = 20
	}
	if o.SimCycles == 0 {
		o.SimCycles = 48
	}
	switch {
	case o.RefinePasses == 0:
		o.RefinePasses = 1
	case o.RefinePasses < 0:
		o.RefinePasses = 0
	}
	if len(o.Overheads) == 0 {
		o.Overheads = []float64{0.25}
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.OracleMaxUnknowns == 0 {
		o.OracleMaxUnknowns = 8000
	}
	if o.TolC == 0 {
		o.TolC = 1e-6
	}
	return o
}

// Check records one property the harness verified (or skipped) for a
// scenario.
type Check struct {
	// Name identifies the property, e.g. "fastpath-vs-spice-oracle".
	Name string
	// Detail reports the measured margin, e.g. "max |dT| = 1.9e-10 C".
	Detail string
	// Skipped marks a check that did not apply to this scenario (for
	// example the SPICE oracle on a grid above OracleMaxUnknowns).
	Skipped bool
}

// Report summarizes one harness run.
type Report struct {
	// Scenario is the normalized scenario that was driven through the flow.
	Scenario bench.Scenario
	// Cells is the generated standard-cell count.
	Cells int
	// Units is the number of logical units in the design.
	Units int
	// PeakRise is the baseline peak temperature rise in kelvin.
	PeakRise float64
	// Hotspots is the number of hotspots detected on the baseline.
	Hotspots int
	// Checks lists every verified property in execution order.
	Checks []Check
}

func (r *Report) pass(name, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, Detail: detail})
}
func (r *Report) skipped(name, why string) {
	r.Checks = append(r.Checks, Check{Name: name, Detail: why, Skipped: true})
}

// Passed returns the number of checks that ran and held.
func (r *Report) Passed() int {
	n := 0
	for _, c := range r.Checks {
		if !c.Skipped {
			n++
		}
	}
	return n
}

// Run generates the scenario, drives it through place → power → thermal →
// sweep, and verifies every cross-implementation property. It returns a
// report of the checks performed; the first violated property aborts the
// run with a descriptive error.
func Run(sc bench.Scenario, opts Options) (*Report, error) {
	opts = opts.normalized()
	gen, err := sc.Generate(celllib.Default65nm())
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Scenario: gen.Scenario,
		Cells:    gen.Design.NumInstances(),
		Units:    len(gen.Config.Units),
	}

	// Property: the generator's reproducibility contract. Regenerating the
	// scenario must produce a byte-identical netlist.
	if opts.SkipDeterminism {
		rep.skipped("netlist-determinism", "disabled by options")
	} else {
		again, err := sc.Generate(celllib.Default65nm())
		if err != nil {
			return rep, fmt.Errorf("harness: regenerating %s: %w", gen.Scenario, err)
		}
		var b1, b2 bytes.Buffer
		if err := netlist.WriteVerilog(&b1, gen.Design); err != nil {
			return rep, err
		}
		if err := netlist.WriteVerilog(&b2, again.Design); err != nil {
			return rep, err
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			return rep, fmt.Errorf("harness: %s: regenerated netlist differs from the first generation", gen.Scenario)
		}
		rep.pass("netlist-determinism", fmt.Sprintf("%d bytes identical", b1.Len()))
	}

	cfg := flow.ScenarioConfig(gen.Scenario)
	cfg.SimCycles = opts.SimCycles
	cfg.RefinePasses = opts.RefinePasses
	cfg.Thermal.NX, cfg.Thermal.NY = opts.Grid, opts.Grid

	f := flow.New(gen.Design, gen.Workload, cfg)
	base, err := f.AnalyzeBaseline()
	if err != nil {
		return rep, fmt.Errorf("harness: %s: baseline analysis: %w", gen.Scenario, err)
	}
	rep.PeakRise = base.PeakRise()
	rep.Hotspots = len(base.Hotspots)

	// Negative injection (testing the harness itself): corrupt the solver
	// output or the placement and let the checks below catch it.
	if opts.InjectThermalBiasC != 0 {
		for i, v := range base.Thermal.Surface.Values() {
			base.Thermal.Surface.Values()[i] = v + opts.InjectThermalBiasC
		}
	}
	if opts.CorruptPlacement {
		for _, inst := range gen.Design.Instances() {
			if inst.IsFiller() {
				continue
			}
			if l, ok := base.Placement.Loc(inst); ok {
				l.X += base.Placement.FP.SiteWidth / 3
				base.Placement.SetLoc(inst, l)
				break
			}
		}
	}

	// Property: the baseline placement satisfies every legality invariant
	// (in-core, row-aligned, site-aligned, non-overlapping, gap-free with
	// fillers).
	if errs := base.Placement.Validate(); len(errs) != 0 {
		return rep, fmt.Errorf("harness: %s: baseline placement invalid: %w (and %d more)",
			gen.Scenario, errs[0], len(errs)-1)
	}
	rep.pass("placement-invariants", fmt.Sprintf("%d cells legal", rep.Cells))

	// Property: a warm-started pooled solve equals a cold fresh-solver
	// solve on the same power map.
	cold, err := thermal.Solve(base.PowerMap, cfg.Thermal)
	if err != nil {
		return rep, fmt.Errorf("harness: %s: cold solve: %w", gen.Scenario, err)
	}
	if d := maxAbsDiff(base.Thermal.Surface, cold.Surface); d > opts.TolC {
		return rep, fmt.Errorf("harness: %s: warm vs cold solve differ by %.3g C (tol %.3g)", gen.Scenario, d, opts.TolC)
	} else {
		rep.pass("warm-vs-cold-solve", fmt.Sprintf("max |dT| = %.3g C", d))
	}

	// Property: the spectral preconditioned solve agrees with the Jacobi
	// retry (same system, different preconditioner), reached the way
	// production reaches it: the preconditioned attempt reports
	// non-convergence without running, so the retry is a pure Jacobi solve
	// from the same start.
	jcfg := cfg.Thermal
	jcfg.Inject = &fault.Injector{FailCGSolveN: 1}
	jac, err := thermal.Solve(base.PowerMap, jcfg)
	if err != nil {
		return rep, fmt.Errorf("harness: %s: jacobi solve: %w", gen.Scenario, err)
	}
	if d := maxAbsDiff(base.Thermal.Surface, jac.Surface); d > opts.TolC {
		return rep, fmt.Errorf("harness: %s: spectral vs Jacobi differ by %.3g C (tol %.3g)", gen.Scenario, d, opts.TolC)
	} else {
		rep.pass("spectral-vs-jacobi", fmt.Sprintf("max |dT| = %.3g C", d))
	}

	// Property: the structured-grid fast path matches the SPICE-circuit
	// oracle on grids small enough to afford it.
	unknowns := cfg.Thermal.NX * cfg.Thermal.NY * len(cfg.Thermal.Stack)
	if unknowns > opts.OracleMaxUnknowns {
		rep.skipped("fastpath-vs-spice-oracle", fmt.Sprintf("%d unknowns > limit %d", unknowns, opts.OracleMaxUnknowns))
	} else {
		oracle, err := thermal.SolveSpice(base.PowerMap, cfg.Thermal, spice.MethodCG)
		if err != nil {
			return rep, fmt.Errorf("harness: %s: spice oracle: %w", gen.Scenario, err)
		}
		if d := maxAbsDiff(base.Thermal.Surface, oracle.Surface); d > opts.TolC {
			return rep, fmt.Errorf("harness: %s: fast path vs SPICE oracle differ by %.3g C (tol %.3g)", gen.Scenario, d, opts.TolC)
		} else {
			rep.pass("fastpath-vs-spice-oracle", fmt.Sprintf("max |dT| = %.3g C over %d unknowns", d, unknowns))
		}
	}

	if err := coAnalysisChecks(rep, gen, base); err != nil {
		return rep, err
	}

	skipSweepChecks := func(why string) {
		rep.skipped("sweep-workers-equality", why)
		rep.skipped("sweep-from-scratch-oracle", why)
		rep.skipped("sweep-adaptive-exactness", why)
	}
	if opts.SkipSweep {
		skipSweepChecks("disabled by options")
		return rep, nil
	}
	if len(base.Hotspots) == 0 {
		skipSweepChecks("baseline has no hotspots to optimize")
		return rep, nil
	}

	// Property: the concurrent sweep engine is bit-identical to the
	// sequential one — == on every float, not approximate equality — and a
	// fresh flow reproduces the first flow's baseline exactly.
	runSweep := func(workers int, keep bool) (*core.SweepResult, error) {
		g := flow.New(gen.Design, gen.Workload, cfg)
		return core.SweepEfficiencyCtx(context.Background(), g, core.SweepOptions{
			Overheads:    opts.Overheads,
			Workers:      workers,
			KeepAnalyses: keep,
		})
	}
	seq, err := runSweep(1, true)
	if err != nil {
		if strings.Contains(err.Error(), "no detectable hotspots") {
			skipSweepChecks("sweep found no hotspots")
			return rep, nil
		}
		return rep, fmt.Errorf("harness: %s: sequential sweep: %w", gen.Scenario, err)
	}
	if seq.Baseline.PeakRise() != base.PeakRise() {
		return rep, fmt.Errorf("harness: %s: fresh flow baseline %v differs from first flow %v",
			gen.Scenario, seq.Baseline.PeakRise(), base.PeakRise())
	}
	rep.pass("fresh-flow-reproducibility", fmt.Sprintf("baseline peak rise %.6f C reproduced", base.PeakRise()))

	// Negative injection (testing the harness itself): corrupt the sweep the
	// oracle below re-derives.
	if opts.NudgeSweepRise {
		seq.Points[0].PeakRise = math.Nextafter(seq.Points[0].PeakRise, math.Inf(1))
	}
	if opts.CorruptSweepPlacement {
		if err := corruptHWCell(seq); err != nil {
			return rep, fmt.Errorf("harness: %s: %w", gen.Scenario, err)
		}
	}

	// Property: the sweep engine — Default points reflowed from the cached
	// baseline, ERI/HW points derived through placement deltas, power
	// reports updated through them — is bit-identical to re-deriving every
	// point from scratch and analyzing it without a delta.
	if err := checkFromScratch(flow.New(gen.Design, gen.Workload, cfg), seq); err != nil {
		return rep, fmt.Errorf("harness: %s: sweep vs from-scratch oracle: %w", gen.Scenario, err)
	}
	rep.pass("sweep-from-scratch-oracle", fmt.Sprintf("%d points and their placements bit-identical from scratch", len(seq.Points)))

	con, err := runSweep(opts.Workers, false)
	if err != nil {
		return rep, fmt.Errorf("harness: %s: concurrent sweep (workers=%d): %w", gen.Scenario, opts.Workers, err)
	}
	if err := compareSweeps(seq, con); err != nil {
		return rep, fmt.Errorf("harness: %s: workers=1 vs workers=%d: %w", gen.Scenario, opts.Workers, err)
	}
	rep.pass("sweep-workers-equality", fmt.Sprintf("%d points bit-identical at workers=%d", len(seq.Points), opts.Workers))

	// Property: the adaptive multi-fidelity sweep is exact — every point it
	// returns is bit-identical (== on every float) to the exhaustive
	// (Margin=+Inf) run's measurement of the same candidate over the same
	// densified grid, and the exhaustive run's 2D Pareto front survives the
	// triage and is exactly the adaptive run's front.
	adOverheads := opts.Overheads
	if len(adOverheads) < 2 {
		// The adaptive grid needs an axis to densify; span one around the
		// single configured overhead.
		adOverheads = []float64{0.5 * adOverheads[0], 1.6 * adOverheads[0]}
	}
	runAdaptive := func(margin, bias float64) (*core.SweepResult, error) {
		g := flow.New(gen.Design, gen.Workload, cfg)
		return core.SweepEfficiencyCtx(context.Background(), g, core.SweepOptions{
			Overheads: adOverheads,
			Workers:   opts.Workers,
			Adaptive: &core.AdaptiveOptions{
				GridScale:          2,
				Margin:             margin,
				CoarseFactor:       2,
				InjectEstRiseBiasC: bias,
			},
		})
	}
	exRef, err := runAdaptive(math.Inf(1), 0)
	if err != nil {
		return rep, fmt.Errorf("harness: %s: exhaustive adaptive reference: %w", gen.Scenario, err)
	}
	ad, err := runAdaptive(adaptiveHarnessMargin, opts.InjectAdaptiveBiasC)
	if err != nil {
		return rep, fmt.Errorf("harness: %s: adaptive sweep: %w", gen.Scenario, err)
	}
	if err := compareAdaptive(exRef, ad); err != nil {
		return rep, fmt.Errorf("harness: %s: adaptive vs exhaustive: %w", gen.Scenario, err)
	}
	ts := ad.Triage
	rep.pass("sweep-adaptive-exactness",
		fmt.Sprintf("%d/%d candidates triaged, %d-point front preserved, max est err %.3g C",
			ts.Candidates-ts.Survivors, ts.Candidates, len(exRef.Front2D()), ts.MaxEstErrC))

	// Property: every placement the sweep produced is legal.
	validated := 0
	for _, pt := range seq.Points {
		if pt.Placement == nil {
			continue
		}
		if errs := pt.Placement.Validate(); len(errs) != 0 {
			return rep, fmt.Errorf("harness: %s: %s point at overhead %.2f invalid: %w",
				gen.Scenario, pt.Strategy, pt.AreaOverhead, errs[0])
		}
		validated++
	}
	rep.pass("sweep-placement-invariants", fmt.Sprintf("%d swept placements legal", validated))
	return rep, nil
}

// coAnalysisChecks verifies the metamorphic properties of the thermal-aware
// timing and congestion co-analysis on the baseline:
//
//   - timing-temperature-monotonicity: uniformly heating the solved surface
//     can only slow the design, so the derated critical path is
//     non-decreasing in temperature;
//   - eri-congestion-hotspot: empty-row insertion spreads the hotspot cells
//     apart, so it must not increase the congestion overflow count in the
//     hotspot region (mapped through the vertical stretch).
func coAnalysisChecks(rep *Report, gen *bench.Generated, base *flow.Analysis) error {
	ta, err := timing.NewAnalyzer(gen.Design)
	if err != nil {
		return fmt.Errorf("harness: %s: timing analyzer: %w", gen.Scenario, err)
	}
	topts := timing.DefaultOptions()
	topts.TemperatureMap = base.Thermal.Surface
	solved := ta.Analyze(base.Placement, topts)

	// Property: derated critical path is monotone non-decreasing in
	// temperature.
	cp := solved.CriticalPathPs
	for _, bias := range []float64{15, 30} {
		hot := base.Thermal.Surface.Clone()
		for i, v := range hot.Values() {
			hot.Values()[i] = v + bias
		}
		hopts := topts
		hopts.TemperatureMap = hot
		hr := ta.Analyze(base.Placement, hopts)
		if hr.CriticalPathPs < cp {
			return fmt.Errorf("harness: %s: derated critical path fell from %.6f ps to %.6f ps under +%g C",
				gen.Scenario, cp, hr.CriticalPathPs, bias)
		}
		cp = hr.CriticalPathPs
	}
	rep.pass("timing-temperature-monotonicity",
		fmt.Sprintf("critical path %.1f ps grows to %.1f ps at +30 C", solved.CriticalPathPs, cp))

	if len(base.Hotspots) == 0 {
		rep.skipped("eri-congestion-hotspot", "baseline has no hotspots")
		return nil
	}
	const eriRows = 4
	eriP, _, err := core.EmptyRowInsertionDelta(base.Placement, base.Hotspots, core.DefaultERIOptions(eriRows))
	if err != nil {
		return fmt.Errorf("harness: %s: eri for co-analysis checks: %w", gen.Scenario, err)
	}

	// Property: ERI must not increase the overflow count in the hotspot
	// region. The region is mapped through the vertical stretch: cells that
	// started inside it end no higher than the inserted height above it.
	region := hotspot.MergedRect(base.Hotspots)
	mapped := region
	mapped.Yhi += float64(eriRows) * base.Placement.FP.RowHeight
	baseCong := congestion.Estimate(base.Placement, congestion.Options{})
	eriCong := congestion.Estimate(eriP, congestion.Options{})
	before, after := baseCong.RegionOverflows(region), eriCong.RegionOverflows(mapped)
	if after > before {
		return fmt.Errorf("harness: %s: ERI raised hotspot-region overflow bins from %d to %d",
			gen.Scenario, before, after)
	}
	rep.pass("eri-congestion-hotspot", fmt.Sprintf("hotspot overflow bins %d -> %d", before, after))
	return nil
}

// adaptiveHarnessMargin is the triage margin the harness drives the
// adaptive sweep with. The harness scenarios run on deliberately tiny
// thermal grids, where the downsampled estimates carry residual errors up
// to ~30% of the rise range, so the margin is set generously above the
// worst observed differential error (front losses appeared at 0.10 and
// below across the scenario families): what the harness pins is the
// exactness contract — points bit-identical to the exhaustive run, front
// preserved — not triage aggressiveness, which the paper-scale benchmark
// exercises on grids fine enough for tight margins.
const adaptiveHarnessMargin = 0.25

// compareAdaptive requires the adaptive sweep to be a subset of the
// exhaustive run's exact measurements (bit-identical, == on floats) with an
// identical 2D Pareto front.
func compareAdaptive(ex, ad *core.SweepResult) error {
	type key struct {
		strategy core.Strategy
		rows     int
		aspect   float64
		util     float64
	}
	kf := func(p *core.EfficiencyPoint) key {
		return key{p.Strategy, p.Rows, p.Aspect, p.Utilization}
	}
	exact := make(map[key]core.EfficiencyPoint, len(ex.Points))
	for _, p := range ex.Points {
		exact[kf(&p)] = p
	}
	for i := range ad.Points {
		p := ad.Points[i]
		ref, ok := exact[kf(&p)]
		if !ok {
			return fmt.Errorf("adaptive point %+v has no exhaustive counterpart", p)
		}
		if p != ref {
			return fmt.Errorf("adaptive point is not the exact measurement:\n  adaptive:   %+v\n  exhaustive: %+v", p, ref)
		}
	}
	exFront := map[key]bool{}
	for _, i := range ex.Front2D() {
		exFront[kf(&ex.Points[i])] = true
	}
	adFront := map[key]bool{}
	for _, i := range ad.Front2D() {
		adFront[kf(&ad.Points[i])] = true
	}
	for k := range exFront {
		if !adFront[k] {
			return fmt.Errorf("true front point %+v was triaged away", k)
		}
	}
	for k := range adFront {
		if !exFront[k] {
			return fmt.Errorf("adaptive front point %+v is not on the true front", k)
		}
	}
	return nil
}

// compareSweeps requires exactly identical sweep output: same point
// identities in the same order and bit-identical floats.
func compareSweeps(seq, con *core.SweepResult) error {
	if seq.Baseline.PeakRise() != con.Baseline.PeakRise() {
		return fmt.Errorf("baseline peak rise differs: %v vs %v", seq.Baseline.PeakRise(), con.Baseline.PeakRise())
	}
	if len(seq.Points) != len(con.Points) {
		return fmt.Errorf("point count differs: %d vs %d", len(seq.Points), len(con.Points))
	}
	for i := range seq.Points {
		s, c := seq.Points[i], con.Points[i]
		if s.Strategy != c.Strategy || s.Rows != c.Rows {
			return fmt.Errorf("point %d identity differs: %s/%d vs %s/%d", i, s.Strategy, s.Rows, c.Strategy, c.Rows)
		}
		if s.PeakRise != c.PeakRise || s.TempReduction != c.TempReduction ||
			s.AreaOverhead != c.AreaOverhead || s.Utilization != c.Utilization {
			return fmt.Errorf("point %d (%s) differs:\n  seq %+v\n  con %+v", i, s.Strategy, s, c)
		}
		if s.CriticalPathPs != c.CriticalPathPs || s.WorstSlackPs != c.WorstSlackPs ||
			s.HPWL != c.HPWL || s.CongestionOverflows != c.CongestionOverflows ||
			s.CongestionMaxUtil != c.CongestionMaxUtil {
			return fmt.Errorf("point %d (%s) co-analysis metrics differ:\n  seq %+v\n  con %+v", i, s.Strategy, s, c)
		}
	}
	return nil
}

// maxAbsDiff returns the largest absolute element difference between two
// equally-sized grids.
func maxAbsDiff(a, b *geom.Grid) float64 {
	av, bv := a.Values(), b.Values()
	if len(av) != len(bv) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range av {
		if x := math.Abs(av[i] - bv[i]); x > d {
			d = x
		}
	}
	return d
}
