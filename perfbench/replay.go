package main

import (
	"context"
	"fmt"

	"thermplace/internal/congestion"
	"thermplace/internal/core"
	"thermplace/internal/fault"
	"thermplace/internal/floorplan"
	"thermplace/internal/flow"
	"thermplace/internal/geom"
	"thermplace/internal/hotspot"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
	"thermplace/internal/power"
	"thermplace/internal/thermal"
	"thermplace/internal/timing"
)

// The replays below re-run an op's analyses through the layers' public
// functions in the order the flow and the sweep call them, one span per
// layer call, so each layer's share of the op can be read off. They mirror
// flow.Flow.AnalyzeWithCtx: a sparse placement delta updates the parent's
// power report, anything else re-estimates; the thermal solve is seeded with
// the lineage parent's solved field; timing is derated with the solved
// surface. Every replayed output must equal the untraced op's.

// replayed is one replayed analysis.
type replayed struct {
	p      *place.Placement
	power  *power.Report
	res    *thermal.Result
	state  []float64 // solved field, the seed of lineage children
	spots  []hotspot.Hotspot
	timing *timing.Report
	cong   *congestion.Report
	hpwl   float64
}

// replayer holds what the flow keeps private and a replay needs: a power
// estimator, a timing analyzer, an exact-fidelity thermal solver and the
// baseline's solved field.
type replayer struct {
	design *netlist.Design
	cfg    flow.Config
	est    *power.Estimator
	ta     *timing.Analyzer
	solver *thermal.Solver
	stats  fault.Stats
	base   *replayed
}

// newSweepReplayer prepares replays against a warm flow: it re-solves the
// baseline power map on a fresh solver exactly as the flow's first solve
// did, to recover the baseline field every sweep point is seeded from.
func newSweepReplayer(f *flow.Flow) (*replayer, error) {
	base, err := f.AnalyzeBaseline()
	if err != nil {
		return nil, err
	}
	act, err := f.Activity()
	if err != nil {
		return nil, err
	}
	r := &replayer{design: f.Design, cfg: f.Config}
	r.est = power.NewEstimator(f.Design, act, f.Config.ClockHz)
	if r.ta, err = timing.NewAnalyzer(f.Design); err != nil {
		return nil, err
	}
	tcfg := f.Config.Thermal
	tcfg.Stats = &r.stats
	if r.solver, err = thermal.NewSolver(tcfg); err != nil {
		return nil, err
	}
	res, err := r.solver.Solve(base.PowerMap)
	if err != nil {
		r.close()
		return nil, err
	}
	if res.PeakRise != base.Thermal.PeakRise {
		r.close()
		return nil, fmt.Errorf("replayed baseline peak rise %v != flow's %v", res.PeakRise, base.Thermal.PeakRise)
	}
	r.base = &replayed{p: base.Placement, power: base.Power, res: base.Thermal, state: r.solver.State(),
		spots: base.Hotspots, timing: base.Timing, cong: base.Congestion, hpwl: base.HPWL}
	return r, nil
}

func (r *replayer) close() {
	if r.solver != nil {
		r.solver.Close()
	}
}

// analyze replays the analysis of placement p, derived from parent through
// delta (parent nil: a standalone analysis on a fresh solver state).
func (r *replayer) analyze(ctx context.Context, tr *tracer, p *place.Placement, delta *place.Delta, parent *replayed) (*replayed, error) {
	out := &replayed{p: p}
	if parent != nil && delta != nil && !delta.IsFull() {
		tr.span("power.update_ms", func() { out.power = parent.power.Update(p, delta) })
		tr.count("power.dirty_nets", len(delta.DirtyNets()))
	} else {
		tr.span("power.estimate_ms", func() { out.power = r.est.Report(p) })
	}
	nx, ny := r.cfg.Thermal.GridDims()
	var pm *geom.Grid
	tr.span("power.map_ms", func() { pm = power.Map(out.power, p, nx, ny) })
	if err := r.solve(ctx, tr, out, pm, parent); err != nil {
		return nil, err
	}
	tr.span("hotspot.ms", func() { out.spots = hotspot.Detect(out.res.RiseMap(), r.cfg.HotspotOptions) })
	r.coAnalyze(tr, out)
	return out, nil
}

func (r *replayer) solve(ctx context.Context, tr *tracer, out *replayed, pm *geom.Grid, parent *replayed) error {
	var err error
	retries := r.stats.Snapshot().SolveRetries
	tr.span("thermal.solve_ms", func() {
		if parent != nil {
			if err = r.solver.SeedState(parent.state); err != nil {
				return
			}
		}
		if out.res, err = r.solver.SolveCtx(ctx, pm); err == nil {
			out.state = r.solver.State()
		}
	})
	if err != nil {
		return err
	}
	tr.count("thermal.solves", 1)
	tr.count("thermal.cg_iters", out.res.Iterations)
	tr.count("thermal.retries", int(r.stats.Snapshot().SolveRetries-retries))
	return nil
}

// coAnalyze replays flow's co-analysis: derated timing, congestion, HPWL.
func (r *replayer) coAnalyze(tr *tracer, out *replayed) {
	if !r.cfg.CoAnalysis {
		return
	}
	topts := timingOptions(r.cfg, out.res)
	tr.span("timing.ms", func() { out.timing = r.ta.Analyze(out.p, topts) })
	tr.span("congestion.ms", func() { out.cong = congestion.Estimate(out.p, r.cfg.Congestion) })
	out.hpwl = out.p.TotalHPWL()
}

// timingOptions resolves the flow's zero Config.Timing the way the flow
// does: default derates, the clock period from ClockHz, the solved surface
// as the temperature map.
func timingOptions(cfg flow.Config, res *thermal.Result) timing.Options {
	topts := cfg.Timing
	if topts == (timing.Options{}) {
		topts = timing.DefaultOptions()
		topts.ClockPeriodPs = 0
	}
	if topts.ClockPeriodPs == 0 {
		topts.ClockPeriodPs = timing.DefaultOptions().ClockPeriodPs
		if cfg.ClockHz > 0 {
			topts.ClockPeriodPs = 1e12 / cfg.ClockHz
		}
	}
	if topts.TemperatureMap == nil {
		topts.TemperatureMap = res.Surface
	}
	return topts
}

// place replays flow.PlaceAtAspect: floorplan, global placement,
// refinement, fillers.
func (r *replayer) place(tr *tracer, util, aspect float64) (*place.Placement, error) {
	var fp *floorplan.Floorplan
	var p *place.Placement
	var err error
	tr.span("floorplan.ms", func() {
		fp, err = floorplan.New(r.design, floorplan.Config{Utilization: util, AspectRatio: aspect})
	})
	if err != nil {
		return nil, err
	}
	tr.span("place.spread_ms", func() { p, err = place.PlaceWithoutFillers(r.design, fp) })
	if err != nil {
		return nil, err
	}
	r.finishPlacement(tr, p)
	return p, nil
}

// reflow replays flow.ReflowAt: the baseline re-spread at util, then the
// same refinement and filler passes.
func (r *replayer) reflow(tr *tracer, util float64) (*place.Placement, *place.Delta, error) {
	var p *place.Placement
	var delta *place.Delta
	var err error
	tr.span("place.reflow_ms", func() { p, delta, err = r.base.p.Reflow(util) })
	if err != nil {
		return nil, nil, err
	}
	r.finishPlacement(tr, p)
	return p, delta, nil
}

func (r *replayer) finishPlacement(tr *tracer, p *place.Placement) {
	if r.cfg.RefinePasses > 0 {
		var swaps int
		tr.span("place.refine_ms", func() { swaps = place.RefineHPWL(p, r.cfg.RefinePasses) })
		tr.count("place.refine_swaps", swaps)
	}
	tr.span("place.fillers_ms", func() { place.InsertFillers(p) })
}

// hw replays the sweep's hotspot-wrapper point on top of a Default point.
// It returns nil when the Default point has no tight hotspot to wrap.
func (r *replayer) hw(ctx context.Context, tr *tracer, def *replayed) (*replayed, error) {
	var spots []hotspot.Hotspot
	tr.span("hotspot.ms", func() {
		spots = hotspot.Detect(def.res.RiseMap(), hotspot.Options{ThresholdFrac: 0.75, MinCells: 2})
	})
	if len(spots) == 0 {
		return nil, nil
	}
	wopts := core.WrapperOptions{PowerOf: def.power.InstancePower, HotCellFactor: 1.0}
	var hp *place.Placement
	var delta *place.Delta
	var err error
	tr.span("core.hw_ms", func() { hp, delta, err = core.HotspotWrapperDelta(def.p, spots, wopts) })
	if err != nil {
		return nil, err
	}
	return r.analyze(ctx, tr, hp, delta, def)
}

// eri replays the sweep's empty-row-insertion point at the given row count.
func (r *replayer) eri(ctx context.Context, tr *tracer, rows int) (*replayed, error) {
	var p *place.Placement
	var delta *place.Delta
	var err error
	tr.span("core.eri_ms", func() {
		p, delta, err = core.EmptyRowInsertionDelta(r.base.p, r.base.spots, core.DefaultERIOptions(rows))
	})
	if err != nil {
		return nil, err
	}
	return r.analyze(ctx, tr, p, delta, r.base)
}

// point converts a replayed analysis into a checked sweep point.
// A Default point's utilization is its candidate's; the others derive it
// from the core area (util 0).
func (r *replayer) point(s core.Strategy, an *replayed, rows int, aspect, util float64) core.EfficiencyPoint {
	areaRatio := an.p.FP.CoreArea() / r.base.p.FP.CoreArea()
	if util == 0 {
		util = r.cfg.Utilization / areaRatio
	}
	pt := core.EfficiencyPoint{
		Strategy:     s,
		Rows:         rows,
		Aspect:       aspect,
		Utilization:  util,
		AreaOverhead: areaRatio - 1,
		PeakRise:     an.res.PeakRise,
		HPWL:         an.hpwl,
	}
	if an.timing != nil {
		pt.CriticalPathPs = an.timing.CriticalPathPs
	}
	if an.cong != nil {
		pt.CongestionOverflows = an.cong.Overflows
	}
	return pt
}

// replayFig6 replays the classic incremental sweep over the overheads:
// per overhead the Default point (reflowed from the baseline) and the HW
// point stacked on it, then one ERI point per overhead's row count.
func (r *replayer) replayFig6(ctx context.Context, tr *tracer, overheads []float64) (*output, error) {
	var defaults, eris, hws []core.EfficiencyPoint
	baseUtil := r.cfg.Utilization
	for _, ov := range overheads {
		util := baseUtil / (1 + ov)
		p, delta, err := r.reflow(tr, util)
		if err != nil {
			return nil, err
		}
		def, err := r.analyze(ctx, tr, p, delta, r.base)
		if err != nil {
			return nil, err
		}
		defaults = append(defaults, r.point(core.StrategyDefault, def, 0, 0, util))
		h, err := r.hw(ctx, tr, def)
		if err != nil {
			return nil, err
		}
		if h != nil {
			hws = append(hws, r.point(core.StrategyHW, h, 0, 0, 0))
		}
	}
	for _, ov := range overheads {
		var rows int
		tr.span("core.eri_ms", func() { rows = core.RowsForAreaOverhead(r.base.p, ov) })
		e, err := r.eri(ctx, tr, rows)
		if err != nil {
			return nil, err
		}
		eris = append(eris, r.point(core.StrategyERI, e, rows, 0, 0))
	}
	pts := append(append(defaults, eris...), hws...)
	return sweepOutput(&core.SweepResult{Points: pts}), nil
}

// replayAdaptive replays the exact phase of an adaptive sweep: every
// returned point, in order, plus the Default parent of every HW point. A
// Default candidate at the flow's aspect reflows from the baseline; other
// aspects are placed from scratch. candidateUtil maps a Default or HW point
// to the utilization of its Default candidate.
func (r *replayer) replayAdaptive(ctx context.Context, tr *tracer, want *output, candidateUtil func(point) (float64, error)) (*output, error) {
	type key struct{ util, aspect float64 }
	defaults := map[key]*replayed{}
	measureDefault := func(util, aspect float64) (*replayed, error) {
		k := key{util, aspect}
		if d := defaults[k]; d != nil {
			return d, nil
		}
		var p *place.Placement
		var delta *place.Delta
		var err error
		if aspect == r.cfg.AspectRatio {
			p, delta, err = r.reflow(tr, util)
		} else {
			p, err = r.place(tr, util, aspect)
		}
		if err != nil {
			return nil, err
		}
		d, err := r.analyze(ctx, tr, p, delta, r.base)
		if err != nil {
			return nil, err
		}
		defaults[k] = d
		return d, nil
	}
	var pts []core.EfficiencyPoint
	for _, wp := range want.Points {
		switch core.Strategy(wp.Strategy) {
		case core.StrategyDefault:
			util, err := candidateUtil(wp)
			if err != nil {
				return nil, err
			}
			d, err := measureDefault(util, wp.Aspect)
			if err != nil {
				return nil, err
			}
			pts = append(pts, r.point(core.StrategyDefault, d, 0, wp.Aspect, util))
		case core.StrategyERI:
			e, err := r.eri(ctx, tr, wp.Rows)
			if err != nil {
				return nil, err
			}
			pts = append(pts, r.point(core.StrategyERI, e, wp.Rows, r.cfg.AspectRatio, 0))
		case core.StrategyHW:
			util, err := candidateUtil(wp)
			if err != nil {
				return nil, err
			}
			d, err := measureDefault(util, wp.Aspect)
			if err != nil {
				return nil, err
			}
			h, err := r.hw(ctx, tr, d)
			if err != nil {
				return nil, err
			}
			if h == nil {
				return nil, fmt.Errorf("replayed HW point at aspect %v has no hotspot to wrap", wp.Aspect)
			}
			pts = append(pts, r.point(core.StrategyHW, h, 0, wp.Aspect, 0))
		}
	}
	return sweepOutput(&core.SweepResult{Points: pts}), nil
}
