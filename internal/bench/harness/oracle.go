package harness

import (
	"context"
	"fmt"

	"thermplace/internal/core"
	"thermplace/internal/flow"
	"thermplace/internal/hotspot"
	"thermplace/internal/place"
)

// checkFromScratch is the sweep engine's oracle. It re-derives every point
// of a sequential KeepAnalyses sweep on a fresh flow with public calls —
// flow.PlaceAtAspect for a Default point, core.EmptyRowInsertionDelta on
// the baseline for an ERI point, core.HotspotWrapperDelta on the re-derived
// Default parent for an HW point, each delta dropped — and analyzes each
// with its lineage parent but no placement delta. Every cell location and
// every point float must be == to the sweep's.
func checkFromScratch(g *flow.Flow, res *core.SweepResult) error {
	base, err := g.AnalyzeBaseline()
	if err != nil {
		return err
	}
	baseArea := base.Placement.FP.CoreArea()
	baseRise := base.Thermal.PeakRise
	// An HW point keeps its Default parent's core outline, so the area
	// overhead names the parent.
	defaults := map[float64]*flow.Analysis{}
	for i, got := range res.Points {
		var p *place.Placement
		parent := base
		switch got.Strategy {
		case core.StrategyDefault:
			aspect := got.Aspect
			if aspect == 0 {
				aspect = g.Config.AspectRatio
			}
			p, err = g.PlaceAtAspect(got.Utilization, aspect)
		case core.StrategyERI:
			p, _, err = core.EmptyRowInsertionDelta(base.Placement, base.Hotspots, core.DefaultERIOptions(got.Rows))
		case core.StrategyHW:
			if parent = defaults[got.AreaOverhead]; parent == nil {
				return fmt.Errorf("point %d (hw): no Default point at overhead %v to wrap", i, got.AreaOverhead)
			}
			spots := hotspot.Detect(parent.Thermal.RiseMap(), hotspot.Options{ThresholdFrac: 0.75, MinCells: 2})
			p, _, err = core.HotspotWrapperDelta(parent.Placement, spots, core.DefaultWrapperOptions(parent.Power.InstancePower))
		}
		if err != nil {
			return fmt.Errorf("point %d (%s): %w", i, got.Strategy, err)
		}
		an, err := g.AnalyzeWithCtx(context.Background(), p, flow.AnalyzeOptions{Parent: parent})
		if err != nil {
			return fmt.Errorf("point %d (%s): %w", i, got.Strategy, err)
		}
		if got.Strategy == core.StrategyDefault {
			defaults[got.AreaOverhead] = an
		}
		if err := samePlacement(got.Analysis, p); err != nil {
			return fmt.Errorf("point %d (%s): %w", i, got.Strategy, err)
		}

		area := p.FP.CoreArea() / baseArea
		want := core.EfficiencyPoint{
			Strategy:      got.Strategy,
			AreaOverhead:  area - 1,
			TempReduction: (baseRise - an.Thermal.PeakRise) / baseRise,
			PeakRise:      an.Thermal.PeakRise,
			Utilization:   g.Config.Utilization / area,
			Aspect:        got.Aspect,
			HPWL:          an.HPWL,

			CriticalPathPs:      an.Timing.CriticalPathPs,
			WorstSlackPs:        an.Timing.SlackPs,
			CongestionOverflows: an.Congestion.Overflows,
			CongestionMaxUtil:   an.Congestion.MaxUtilization,
		}
		switch got.Strategy {
		case core.StrategyDefault:
			want.Utilization = got.Utilization
		case core.StrategyERI:
			want.Rows = got.Rows
		}
		got.Analysis = nil
		if got != want {
			return fmt.Errorf("point %d differs:\n  sweep:        %+v\n  from scratch: %+v", i, got, want)
		}
	}
	return nil
}

// samePlacement requires the sweep's kept analysis to hold a placement with
// the same core outline and cell locations as want.
func samePlacement(an *flow.Analysis, want *place.Placement) error {
	if an == nil {
		return fmt.Errorf("sweep kept no placement")
	}
	got := an.Placement
	if got.FP.Core != want.FP.Core {
		return fmt.Errorf("core %v differs from %v", got.FP.Core, want.FP.Core)
	}
	for _, inst := range want.Design.Instances() {
		gl, gok := got.Loc(inst)
		wl, wok := want.Loc(inst)
		if gl != wl || gok != wok {
			return fmt.Errorf("cell %s at %+v, from scratch at %+v", inst.Name, gl, wl)
		}
	}
	return nil
}

// corruptHWCell moves one cell of the first HW point's placement by a site.
func corruptHWCell(res *core.SweepResult) error {
	for _, pt := range res.Points {
		if pt.Strategy != core.StrategyHW || pt.Analysis == nil {
			continue
		}
		p := pt.Analysis.Placement
		for _, inst := range p.Design.Instances() {
			if l, ok := p.Loc(inst); ok && !inst.IsFiller() {
				l.X += p.FP.SiteWidth
				p.SetLoc(inst, l)
				return nil
			}
		}
	}
	return fmt.Errorf("corrupt sweep placement: no HW point with a placed cell")
}
