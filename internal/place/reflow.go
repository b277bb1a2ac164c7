package place

import (
	"fmt"

	"thermplace/internal/floorplan"
	"thermplace/internal/geom"
)

// Reflow derives the placement of the same design at a different
// utilization from this placement, without re-running global placement: the
// floorplan is rebuilt at the target utilization (relaxing it grows the
// core and the per-row whitespace; compacting shrinks them) and the cached
// per-unit connectivity order is re-spread into the resized rows. The
// spreading, port assignment and legalization arithmetic is exactly the
// from-scratch placer's, and the connectivity order depends only on the
// frozen netlist, so the result is bit-identical to
// PlaceWithoutFillers(design, floorplan.New(...)) at the target
// utilization — the guarantee the incremental sweep relies on. The skipped
// work is everything netlist-derived: the BFS ordering, the unit grouping
// and the per-instance net index, which the derived placement shares.
//
// The receiver is read only; its cell coordinates are never consulted — a
// resized floorplan displaces every row, which is why the returned Delta is
// FullDelta. Callers that refine or fill the from-scratch placement must
// apply the same passes to the reflowed one (flow.ReflowAt does).
func (p *Placement) Reflow(utilization float64) (*Placement, *Delta, error) {
	fp, err := floorplan.New(p.Design, floorplan.Config{
		Utilization: utilization,
		AspectRatio: p.FP.AspectRatio,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("place: reflow floorplan at %.3f utilization: %w", utilization, err)
	}
	groups := p.unitOrder
	if groups == nil {
		// The placement was not built by the global placer; derive the
		// order now (it is a function of the netlist alone, so this still
		// matches a from-scratch run).
		groups, err = orderedUnitGroups(p.Design, fp)
		if err != nil {
			return nil, nil, err
		}
	}
	out := newDerivedPlacement(p, fp, groups)
	if err := spreadUnits(out, groups); err != nil {
		return nil, nil, err
	}
	placePorts(out)
	Legalize(out)
	return out, FullDelta(), nil
}

// newDerivedPlacement creates an empty placement for the same design in a
// new floorplan, sharing every netlist-derived (floorplan-independent)
// index with the source placement instead of rebuilding it.
func newDerivedPlacement(p *Placement, fp *floorplan.Floorplan, groups []unitGroup) *Placement {
	out := &Placement{
		Design:      p.Design,
		FP:          fp,
		insts:       p.insts,
		nets:        p.nets,
		locs:        make([]Loc, len(p.locs)),
		placed:      make([]bool, len(p.placed)),
		portLocs:    make([]geom.Point, len(p.portLocs)),
		portKnown:   make([]bool, len(p.portKnown)),
		rowOcc:      make([][]int32, fp.NumRows()),
		rowPos:      make([]int32, len(p.rowPos)),
		netBox:      make([]geom.Rect, len(p.netBox)),
		netBoxValid: make([]bool, len(p.netBoxValid)),
		instNets:    p.instNets,
		unitOrder:   groups,
	}
	for i := range out.rowPos {
		out.rowPos[i] = -1
	}
	return out
}
