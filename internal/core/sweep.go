package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"thermplace/internal/fault"
	"thermplace/internal/flow"
	"thermplace/internal/place"
)

// EfficiencyPoint is one point of the paper's Figure 6: a strategy applied
// at a given area overhead and the peak-temperature reduction it achieved.
type EfficiencyPoint struct {
	Strategy Strategy
	// AreaOverhead is the fractional core-area increase over the baseline
	// placement (0.16 means +16.1%).
	AreaOverhead float64
	// TempReduction is the fractional reduction of the peak temperature
	// rise relative to the baseline (0.131 means 13.1%).
	TempReduction float64
	// PeakRise is the absolute peak rise above ambient of this point in K.
	PeakRise float64
	// Rows is the number of empty rows inserted (ERI points only).
	Rows int
	// Utilization is the placement utilization of this point.
	Utilization float64
	// Aspect is the core aspect ratio of this point's floorplan. The
	// adaptive sweep sets it (its candidate grid has an aspect axis);
	// classic sweeps leave it zero — every point uses the flow's configured
	// aspect.
	Aspect float64

	// CriticalPathPs is the temperature-derated critical path of the point
	// in picoseconds, and WorstSlackPs the slack against the flow's clock
	// period (both zero when flow.Config.CoAnalysis is off).
	CriticalPathPs float64
	WorstSlackPs   float64
	// HPWL is the total half-perimeter wirelength of the point in um.
	HPWL float64
	// CongestionOverflows counts the routing bins whose estimated
	// utilization exceeds 1; CongestionMaxUtil is the worst bin.
	CongestionOverflows int
	CongestionMaxUtil   float64
	// Analysis carries the full measurement for further inspection (may be
	// nil when KeepAnalyses is false).
	Analysis *flow.Analysis
	// Placement is the placement measured at this point (may be nil when
	// KeepAnalyses is false).
	Placement *place.Placement
}

// SweepOptions controls an efficiency sweep.
type SweepOptions struct {
	// Overheads are the target fractional area overheads for the Default
	// and HW strategies, e.g. {0.05, 0.1, 0.2, 0.3, 0.4}.
	Overheads []float64
	// ERIRows are the empty-row counts for the ERI strategy; when empty,
	// row counts approximating Overheads are used.
	ERIRows []int
	// Strategies selects which strategies to sweep; empty means all three.
	Strategies []Strategy
	// KeepAnalyses retains the full analysis and placement of every point
	// (memory heavy for large sweeps).
	KeepAnalyses bool
	// Workers bounds how many sweep points are evaluated concurrently.
	// Zero picks GOMAXPROCS; 1 evaluates the points sequentially in order.
	// Every point is a pure function of its declared lineage (thermal warm
	// starts are seeded from the parent's field: the baseline for Default
	// and ERI points, the same-overhead Default point for HW points — a
	// chain that lives entirely inside one task), so the sweep output is
	// bit-identical for every worker count.
	Workers int
	// Incremental is ignored and kept for source compatibility: every sweep
	// point is derived from its lineage parent through a placement delta
	// (see Evaluator), and the scenario harness checks the result against a
	// from-scratch re-derivation with ==.
	Incremental bool
	// Adaptive, when non-nil, switches the sweep to the two-phase
	// multi-fidelity mode (see AdaptiveOptions): a densified candidate grid
	// is triaged with cheap coarse-fidelity estimates and only the
	// estimated Pareto front (plus a safety margin) is measured exactly.
	// The returned points are exact; Triage records what the coarse phase
	// did.
	Adaptive *AdaptiveOptions
}

// DefaultSweepOptions reproduces the x-axis range of the paper's Figure 6:
// area overheads from about 5% to 40%.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{
		Overheads: []float64{0.05, 0.10, 0.16, 0.24, 0.32, 0.40},
	}
}

// SweepResult is the outcome of an efficiency sweep.
type SweepResult struct {
	// Baseline is the analysis of the compact starting placement that every
	// reduction is measured against.
	Baseline *flow.Analysis
	// BaselineUtilization is the utilization of the baseline placement.
	BaselineUtilization float64
	// Points are the measured efficiency points, grouped by strategy in the
	// order Default, ERI, HW, each sorted by increasing area overhead.
	// Every point is an exact measurement — an adaptive sweep never emits
	// its coarse estimates as points.
	Points []EfficiencyPoint
	// Triage records what the coarse phase of an adaptive sweep did (nil
	// for a classic sweep).
	Triage *TriageStats
}

// coMetrics copies the co-analysis scalars of an analysis into the point
// (zeros when the flow ran without Config.CoAnalysis).
func (pt *EfficiencyPoint) coMetrics(an *flow.Analysis) *EfficiencyPoint {
	pt.HPWL = an.HPWL
	if an.Timing != nil {
		pt.CriticalPathPs = an.Timing.CriticalPathPs
		pt.WorstSlackPs = an.Timing.SlackPs
	}
	if an.Congestion != nil {
		pt.CongestionOverflows = an.Congestion.Overflows
		pt.CongestionMaxUtil = an.Congestion.MaxUtilization
	}
	return pt
}

// ParetoFront returns the indices into Points of the multi-objective Pareto
// front: the points no other point weakly dominates under joint
// minimization of area overhead, peak temperature rise, critical-path
// delay, wirelength and congestion overflow. A point dominates another when
// it is no worse in every objective and strictly better in at least one;
// ties (identical vectors) stay on the front. The result depends only on
// the point values and their deterministic order, so it is bit-identical
// across worker counts like the points themselves.
func (r *SweepResult) ParetoFront() []int {
	objectives := func(p *EfficiencyPoint) [5]float64 {
		return [5]float64{p.AreaOverhead, p.PeakRise, p.CriticalPathPs, p.HPWL, float64(p.CongestionOverflows)}
	}
	dominates := func(a, b [5]float64) bool {
		strict := false
		for k := range a {
			if a[k] > b[k] {
				return false
			}
			if a[k] < b[k] {
				strict = true
			}
		}
		return strict
	}
	var front []int
	for i := range r.Points {
		oi := objectives(&r.Points[i])
		dominated := false
		for j := range r.Points {
			if j != i && dominates(objectives(&r.Points[j]), oi) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// Front2D returns the indices into Points of the Pareto front restricted to
// the adaptive sweep's two triage objectives — area overhead and peak
// temperature rise — under the same weak-dominance semantics as
// ParetoFront. It is the front the adaptive margin guarantee is stated on:
// an adaptive run whose margin covers the coarse estimation error yields
// the same Front2D point set as the exhaustive run over the same grid.
func (r *SweepResult) Front2D() []int {
	dominates := func(a, b *EfficiencyPoint) bool {
		if a.AreaOverhead > b.AreaOverhead || a.PeakRise > b.PeakRise {
			return false
		}
		return a.AreaOverhead < b.AreaOverhead || a.PeakRise < b.PeakRise
	}
	var front []int
	for i := range r.Points {
		dominated := false
		for j := range r.Points {
			if j != i && dominates(&r.Points[j], &r.Points[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// PointsFor returns the points of one strategy in sweep order.
func (r *SweepResult) PointsFor(s Strategy) []EfficiencyPoint {
	var out []EfficiencyPoint
	for _, p := range r.Points {
		if p.Strategy == s {
			out = append(out, p)
		}
	}
	return out
}

// reduction computes the fractional peak-rise reduction of a versus base.
func reduction(base, a float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - a) / base
}

func wantStrategy(opts SweepOptions, s Strategy) bool {
	if len(opts.Strategies) == 0 {
		return true
	}
	for _, x := range opts.Strategies {
		if x == s {
			return true
		}
	}
	return false
}

// SweepEfficiency reproduces the paper's Figure 6 experiment on the flow's
// design and workload: it measures the baseline placement, then for every
// requested area overhead measures the Default strategy (utilization
// relaxation), the ERI strategy (empty rows targeted at the baseline's
// hotspots) and the HW strategy (wrappers applied on top of the Default
// placement of the same overhead), and reports the peak-temperature
// reduction of each point.
//
// The points are independent given the baseline, so they are evaluated on a
// bounded worker group (see SweepOptions.Workers): one task per overhead
// runs the Default point and then the HW point that depends on it, and one
// task per row count runs an ERI point. Results are recorded into
// per-candidate slots and assembled in the sequential order afterwards, so
// both the values (thermal warm starts are seeded from the lineage parent's
// field) and the ordering are bit-identical to a Workers=1 run.
func SweepEfficiency(f *flow.Flow, opts SweepOptions) (*SweepResult, error) {
	return SweepEfficiencyCtx(context.Background(), f, opts)
}

// SweepEfficiencyCtx is SweepEfficiency with cancellation: the context is
// threaded into every sweep point's thermal solve (checked per CG
// iteration), so a mid-sweep cancel aborts the in-flight points within
// milliseconds and skips the queued ones, returning an error matching
// fault.ErrCanceled. When the context never fires the sweep result is
// bit-identical to SweepEfficiency.
//
// Point failures carry provenance: the returned error names the design, the
// strategy and the point index it came from (extractable with errors.As on
// *fault.ProvenanceError), and a panic inside a point task is contained as a
// located *fault.ErrPanic rather than crashing the sweep.
func SweepEfficiencyCtx(ctx context.Context, f *flow.Flow, opts SweepOptions) (*SweepResult, error) {
	if len(opts.Overheads) == 0 {
		// Default only the overhead range; the caller's Workers, Strategies
		// and retention settings stay in force.
		opts.Overheads = DefaultSweepOptions().Overheads
	}
	ev, err := NewEvaluator(ctx, f)
	if err != nil {
		return nil, fmt.Errorf("core: sweep baseline: %w", err)
	}
	if len(ev.baseline.Hotspots) == 0 {
		return nil, fmt.Errorf("core: baseline has no detectable hotspots; nothing to optimize")
	}
	if opts.Adaptive != nil {
		return sweepAdaptive(ctx, ev, opts)
	}

	// The classic sweep is the candidate grid with no triage: every
	// candidate survives to the exact fan-out.
	var rowCounts []int
	if wantStrategy(opts, StrategyERI) {
		rowCounts = opts.ERIRows
		if len(rowCounts) == 0 {
			//repolint:allow ctxpair(geometry-only derivation over a handful of overheads; no solves inside)
			for _, ov := range opts.Overheads {
				rowCounts = append(rowCounts, RowsForAreaOverhead(ev.baseline.Placement, ov))
			}
		}
	}
	s := newSweep(ev, opts, opts.Overheads, []float64{0}, rowCounts, 0)
	for _, c := range s.cands {
		c.survives = true
	}
	if _, err := s.measure(ctx, nil); err != nil {
		return nil, err
	}
	return &SweepResult{Baseline: ev.baseline, BaselineUtilization: ev.baseUtil, Points: s.points()}, nil
}

// candidate is one cell of a sweep's design-space grid.
type candidate struct {
	index int // position in the deterministic enumeration order
	slot  int // position on its strategy's axis: the provenance of its errors
	pt    Point

	// Adaptive phase-1 estimate. estArea is exact (derived from the
	// candidate's floorplan geometry); rawRise is the uncalibrated
	// coarse-solve peak rise and estRise the calibrated estimate. estValid
	// is false when no estimate could be formed (the candidate then
	// survives conservatively). anchored marks the calibration anchors,
	// measured exactly during phase 1.
	estValid bool
	estArea  float64
	rawRise  float64
	estRise  float64
	survives bool
	anchored bool

	// point is the exact measurement (nil when triaged away or when the HW
	// transform skipped the point for lack of a hotspot to wrap).
	point *EfficiencyPoint
}

// sweep is the candidate grid of one sweep and its exact fan-out, shared
// by the classic sweep (every candidate survives) and the adaptive one
// (survivors of the coarse triage).
type sweep struct {
	ev   *Evaluator
	opts SweepOptions

	// cands lists every candidate in enumeration order: Default by
	// aspect-major/overhead-minor, then ERI by row count, then HW — the
	// order the points are reported in.
	cands []*candidate
	// defaults[a][i] and hws[a][i] pair the Default and HW candidates of
	// one (aspect, overhead) cell; hws is nil when HW is not swept.
	defaults, hws [][]*candidate
	eris          []*candidate

	// solves counts the exact analyses the sweep ran.
	solves atomic.Int64
}

// newSweep enumerates the candidate grid: Default and HW candidates on
// every (aspect, overhead) cell, ERI candidates per row count at eriAspect.
// Default candidates are enumerated when HW is swept even if Default is
// not: they are the HW points' lineage parents.
func newSweep(ev *Evaluator, opts SweepOptions, overheads, aspects []float64, rowCounts []int, eriAspect float64) *sweep {
	s := &sweep{ev: ev, opts: opts}
	add := func(slot int, pt Point) *candidate {
		c := &candidate{index: len(s.cands), slot: slot, pt: pt}
		s.cands = append(s.cands, c)
		return c
	}
	cells := func(strategy Strategy) [][]*candidate {
		out := make([][]*candidate, len(aspects))
		for ai, asp := range aspects {
			out[ai] = make([]*candidate, len(overheads))
			for i, ov := range overheads {
				pt := Point{Strategy: strategy, Utilization: ev.baseUtil / (1 + ov), Aspect: asp}
				out[ai][i] = add(ai*len(overheads)+i, pt)
			}
		}
		return out
	}
	wantHW := wantStrategy(opts, StrategyHW)
	if wantHW || wantStrategy(opts, StrategyDefault) {
		s.defaults = cells(StrategyDefault)
	}
	for j, rows := range rowCounts {
		s.eris = append(s.eris, add(j, Point{Strategy: StrategyERI, Rows: rows, Aspect: eriAspect}))
	}
	if wantHW {
		s.hws = cells(StrategyHW)
	}
	return s
}

// exact measures candidate c through the evaluator (parent: an HW
// candidate's measured Default analysis) and, when record is set, keeps its
// point. Errors carry the candidate's provenance. It returns the analysis,
// nil for a skipped HW point.
func (s *sweep) exact(ctx context.Context, c *candidate, parent *flow.Analysis, record bool) (*flow.Analysis, error) {
	pt, an, err := s.ev.Evaluate(ctx, c.pt, parent)
	if err != nil {
		return nil, fault.WithProvenance(err, s.ev.flow.Design.Name, string(c.pt.Strategy), c.slot)
	}
	if an == nil {
		return nil, nil
	}
	s.solves.Add(1)
	if record {
		if s.opts.KeepAnalyses {
			pt.Analysis, pt.Placement = an, an.Placement
		}
		c.point = pt
	}
	return an, nil
}

// measure is the exact phase: one task per (aspect, overhead) cell measures
// the surviving Default candidate and then the surviving HW candidate
// stacked on it, and one task per surviving ERI candidate measures it.
// Anchored candidates were measured already; anchor is the anchored Default
// candidate's analysis, the HW parent of its cell. It returns how many
// Default candidates were measured only as HW parents.
func (s *sweep) measure(ctx context.Context, anchor *flow.Analysis) (extraParents int, err error) {
	wantDefault := wantStrategy(s.opts, StrategyDefault)
	var tasks []func(context.Context) error
	for ai, cells := range s.defaults {
		for i, d := range cells {
			var h *candidate
			if s.hws != nil {
				h = s.hws[ai][i]
			}
			needDefault := wantDefault && d.survives
			needHW := h != nil && h.survives
			if !needHW && (!needDefault || d.anchored) {
				continue
			}
			if needHW && !needDefault && !d.anchored {
				extraParents++
			}
			tasks = append(tasks, func(tctx context.Context) error {
				parent := anchor
				if !d.anchored {
					var err error
					if parent, err = s.exact(tctx, d, nil, needDefault); err != nil {
						return err
					}
				}
				if !needHW {
					return nil
				}
				_, err := s.exact(tctx, h, parent, true)
				return err
			})
		}
	}
	for _, c := range s.eris {
		if c.survives && !c.anchored {
			tasks = append(tasks, func(tctx context.Context) error {
				_, err := s.exact(tctx, c, nil, true)
				return err
			})
		}
	}
	return extraParents, runTasks(ctx, tasks, s.opts.Workers)
}

// points assembles the measured points in enumeration order.
func (s *sweep) points() []EfficiencyPoint {
	var out []EfficiencyPoint
	for _, c := range s.cands {
		if c.point != nil {
			out = append(out, *c.point)
		}
	}
	return out
}

// runTasks executes the tasks on a bounded worker group. workers <= 0 picks
// GOMAXPROCS; workers == 1 runs the tasks inline in order.
//
// A failed task aborts the rest of the group: tasks that have not started
// yet are skipped, and the in-flight siblings are canceled through the
// derived context every task receives (each task checks it inside its
// thermal solve, so a long-running sibling aborts within milliseconds
// instead of running to completion). The lowest-index genuine error among
// the tasks that ran is returned; a sibling that merely reports the
// abort-cancellation never masks the failure that triggered it, even when it
// ran at a lower index. An external cancellation of ctx aborts the same way
// and surfaces as an error matching fault.ErrCanceled.
//
// A panic inside a task is contained as a located *fault.ErrPanic and
// treated exactly like any other task error — the sweep caller gets an
// error, not a crash, and no worker goroutine is lost.
func runTasks(ctx context.Context, tasks []func(context.Context) error, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	tctx, tcancel := context.WithCancel(ctx)
	defer tcancel()
	if workers <= 1 {
		for i, t := range tasks {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("core: sweep: %w", fault.Canceled(cerr))
			}
			if err := runOneTask(tctx, i, t); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	var failed atomic.Bool
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//repolint:allow bareGo(runTasks is itself the sweep concurrency primitive the rule points to)
		go func() {
			defer wg.Done()
			for idx := range next {
				if failed.Load() {
					continue
				}
				if err := runOneTask(tctx, idx, tasks[idx]); err != nil {
					errs[idx] = err
					failed.Store(true)
					tcancel() // abort the in-flight siblings
				}
			}
		}()
	}
	for i := range tasks {
		next <- i
	}
	close(next)
	wg.Wait()

	// Prefer the lowest-index error that is not itself the
	// abort-cancellation: with workers > 1, a sibling at a lower index may
	// legitimately fail with ErrCanceled as a *consequence* of the real
	// failure, and returning it would hide the cause.
	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, fault.ErrCanceled) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		// The caller's context fired: every error above (if any) is the
		// cancellation itself.
		return fmt.Errorf("core: sweep: %w", fault.Canceled(cerr))
	}
	return canceled
}

// runOneTask runs one sweep task, containing a panic as a located typed
// error so a crashing point cannot take down the worker group.
func runOneTask(ctx context.Context, idx int, task func(context.Context) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("core: sweep task %d: %w", idx,
				fault.Recovered(fmt.Sprintf("core sweep task %d", idx), v))
		}
	}()
	return task(ctx)
}

// ConcentratedRow is one row of the paper's Table I.
type ConcentratedRow struct {
	Strategy      Strategy
	CoreW, CoreH  float64
	Rows          int
	AreaOverhead  float64
	TempReduction float64
	PeakRise      float64
}

// ConcentratedOptions configures the Table I experiment.
type ConcentratedOptions struct {
	// Overheads are the two (or more) area-overhead points; the paper uses
	// 16.1% and 32.2%.
	Overheads []float64
	// ERIRows are the matching empty-row counts; the paper uses 20 and 40.
	// When empty, counts matching Overheads are derived from the baseline.
	ERIRows []int
	// KeepAnalyses retains each row's analysis (not exported in the row,
	// but reachable through the returned analyses slice).
	KeepAnalyses bool
}

// DefaultConcentratedOptions mirrors Table I of the paper.
func DefaultConcentratedOptions() ConcentratedOptions {
	return ConcentratedOptions{
		Overheads: []float64{0.161, 0.322},
		ERIRows:   []int{20, 40},
	}
}

// ConcentratedResult is the reproduced Table I.
type ConcentratedResult struct {
	Baseline *flow.Analysis
	Rows     []ConcentratedRow
}

// ConcentratedExperiment reproduces Table I: for a workload producing one
// large concentrated hotspot, it compares the Default strategy at the given
// area overheads against Empty Row Insertion with the given row counts
// (the wrapper method "is not suitable for large hotspots", so it is not
// part of this experiment, exactly as in the paper).
func ConcentratedExperiment(f *flow.Flow, opts ConcentratedOptions) (*ConcentratedResult, error) {
	return ConcentratedExperimentCtx(context.Background(), f, opts)
}

// ConcentratedExperimentCtx is ConcentratedExperiment with cancellation: the
// context is threaded into every row's thermal solve, so a cancel aborts the
// experiment mid-row with an error matching fault.ErrCanceled. When the
// context never fires the result is bit-identical to ConcentratedExperiment.
func ConcentratedExperimentCtx(ctx context.Context, f *flow.Flow, opts ConcentratedOptions) (*ConcentratedResult, error) {
	if len(opts.Overheads) == 0 {
		opts = DefaultConcentratedOptions()
	}
	baseline, err := f.AnalyzeBaselineCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: concentrated baseline: %w", err)
	}
	if len(baseline.Hotspots) == 0 {
		return nil, fmt.Errorf("core: concentrated baseline has no hotspots")
	}
	baseRise := baseline.Thermal.PeakRise
	baseArea := baseline.Placement.FP.CoreArea()
	out := &ConcentratedResult{Baseline: baseline}

	for _, ov := range opts.Overheads {
		util := f.Config.Utilization / (1 + ov)
		p, err := f.PlaceAt(util)
		if err != nil {
			return nil, err
		}
		an, err := f.AnalyzeCtx(ctx, p)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ConcentratedRow{
			Strategy:      StrategyDefault,
			CoreW:         p.FP.Core.W(),
			CoreH:         p.FP.Core.H(),
			AreaOverhead:  p.FP.CoreArea()/baseArea - 1,
			TempReduction: reduction(baseRise, an.Thermal.PeakRise),
			PeakRise:      an.Thermal.PeakRise,
		})
	}

	rowCounts := opts.ERIRows
	if len(rowCounts) == 0 {
		//repolint:allow ctxpair(geometry-only derivation over a handful of overheads; no solves inside)
		for _, ov := range opts.Overheads {
			rowCounts = append(rowCounts, RowsForAreaOverhead(baseline.Placement, ov))
		}
	}
	for _, rows := range rowCounts {
		p, err := EmptyRowInsertion(baseline.Placement, baseline.Hotspots[:1], DefaultERIOptions(rows))
		if err != nil {
			return nil, err
		}
		an, err := f.AnalyzeCtx(ctx, p)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ConcentratedRow{
			Strategy:      StrategyERI,
			CoreW:         p.FP.Core.W(),
			CoreH:         p.FP.Core.H(),
			Rows:          rows,
			AreaOverhead:  p.FP.CoreArea()/baseArea - 1,
			TempReduction: reduction(baseRise, an.Thermal.PeakRise),
			PeakRise:      an.Thermal.PeakRise,
		})
	}
	return out, nil
}
