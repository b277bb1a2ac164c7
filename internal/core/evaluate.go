package core

import (
	"context"
	"fmt"

	"thermplace/internal/flow"
	"thermplace/internal/hotspot"
	"thermplace/internal/place"
)

// wrapperDetection is how the HW strategy finds the hotspots it wraps: a
// tighter definition than the flow's, so the wrapper isolates the cells that
// are the source of each hotspot rather than the whole warm area around it
// (which is what ERI targets).
var wrapperDetection = hotspot.Options{ThresholdFrac: 0.75, MinCells: 2}

// Point names one design point of a sweep.
type Point struct {
	Strategy Strategy
	// Utilization is the placement utilization of a Default point, and of
	// the Default placement an HW point wraps.
	Utilization float64
	// Rows is the empty-row count of an ERI point.
	Rows int
	// Aspect is the core aspect ratio of a Default point and of an HW
	// point's Default parent; zero means the flow's configured aspect. ERI
	// stretches the baseline, whose aspect is fixed. The value is echoed
	// into EfficiencyPoint.Aspect.
	Aspect float64
}

func (pt Point) String() string {
	switch pt.Strategy {
	case StrategyERI:
		return fmt.Sprintf("eri %d rows", pt.Rows)
	case StrategyDefault, StrategyHW:
		if pt.Aspect != 0 {
			return fmt.Sprintf("%s at utilization %.3f, aspect %g", pt.Strategy, pt.Utilization, pt.Aspect)
		}
		return fmt.Sprintf("%s at utilization %.3f", pt.Strategy, pt.Utilization)
	}
	return fmt.Sprintf("strategy %q", pt.Strategy)
}

// Evaluator measures design points against one flow's baseline analysis. It
// is the only code that derives a point's placement and analyzes it, so the
// classic and adaptive sweeps, thermserve and thermflow measure a point
// identically. Every point is a pure function of the point and its lineage
// (the baseline, or for HW the Default parent), which makes an Evaluator
// safe for concurrent use.
type Evaluator struct {
	flow     *flow.Flow
	baseline *flow.Analysis
	baseUtil float64
}

// NewEvaluator returns an evaluator for the flow, analyzing its baseline
// placement (or fetching the cached baseline analysis).
func NewEvaluator(ctx context.Context, f *flow.Flow) (*Evaluator, error) {
	baseline, err := f.AnalyzeBaselineCtx(ctx)
	if err != nil {
		return nil, err
	}
	return &Evaluator{flow: f, baseline: baseline, baseUtil: f.Config.Utilization}, nil
}

// Baseline returns the analysis every point is measured against.
func (e *Evaluator) Baseline() *flow.Analysis { return e.baseline }

// Evaluate measures one point. The lineage policy:
//
//   - Default reflows the cached baseline (flow.ReflowAt) at the flow's
//     aspect and places from scratch (flow.PlaceAtAspect) at any other.
//   - ERI inserts empty rows at the baseline's hotspots
//     (EmptyRowInsertionDelta).
//   - HW wraps the tight hotspots of its Default parent
//     (HotspotWrapperDelta with DefaultWrapperOptions). parent is that
//     Default point's analysis; nil measures it first.
//
// Every placement is analyzed with its lineage parent and placement delta
// (flow.AnalyzeOptions), the baseline for Default and ERI. Evaluate
// returns the point and its analysis; an HW point whose parent has no tight
// hotspot is skipped with a nil point, a nil analysis and a nil error.
func (e *Evaluator) Evaluate(ctx context.Context, pt Point, parent *flow.Analysis) (*EfficiencyPoint, *flow.Analysis, error) {
	var p *place.Placement
	var delta *place.Delta
	var err error
	lineage := e.baseline
	switch pt.Strategy {
	case StrategyDefault:
		if pt.Aspect == 0 || pt.Aspect == e.flow.Config.AspectRatio {
			p, delta, err = e.flow.ReflowAt(pt.Utilization)
		} else {
			p, err = e.flow.PlaceAtAspect(pt.Utilization, pt.Aspect)
		}
	case StrategyERI:
		p, delta, err = EmptyRowInsertionDelta(e.baseline.Placement, e.baseline.Hotspots, DefaultERIOptions(pt.Rows))
	case StrategyHW:
		if parent == nil {
			if _, parent, err = e.Evaluate(ctx, Point{Strategy: StrategyDefault, Utilization: pt.Utilization, Aspect: pt.Aspect}, nil); err != nil {
				return nil, nil, err
			}
		}
		spots := hotspot.Detect(parent.Thermal.RiseMap(), wrapperDetection)
		if len(spots) == 0 {
			return nil, nil, nil
		}
		lineage = parent
		p, delta, err = HotspotWrapperDelta(parent.Placement, spots, DefaultWrapperOptions(parent.Power.InstancePower))
	default:
		err = fmt.Errorf("unknown strategy")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: %v: %w", pt, err)
	}
	an, err := e.flow.AnalyzeWithCtx(ctx, p, flow.AnalyzeOptions{Parent: lineage, Delta: delta})
	if err != nil {
		return nil, nil, fmt.Errorf("core: %v: %w", pt, err)
	}
	area := an.Placement.FP.CoreArea() / e.baseline.Placement.FP.CoreArea()
	out := &EfficiencyPoint{
		Strategy:      pt.Strategy,
		AreaOverhead:  area - 1,
		TempReduction: reduction(e.baseline.Thermal.PeakRise, an.Thermal.PeakRise),
		PeakRise:      an.Thermal.PeakRise,
		Utilization:   e.baseUtil / area,
		Aspect:        pt.Aspect,
	}
	switch pt.Strategy {
	case StrategyDefault:
		out.Utilization = pt.Utilization
	case StrategyERI:
		out.Rows = pt.Rows
	}
	return out.coMetrics(an), an, nil
}
