package core

import (
	"fmt"
	"math"

	"thermplace/internal/floorplan"
	"thermplace/internal/geom"
	"thermplace/internal/hotspot"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
)

// WrapperOptions tunes the Hotspot Wrapper transform.
type WrapperOptions struct {
	// PowerOf returns the estimated power of an instance in watts; it is
	// used to decide which cells are "the source of the hotspot" (kept
	// inside the wrapper) and which are bystanders (moved outside).
	// It must not be nil.
	PowerOf func(*netlist.Instance) float64
	// RingWidth is the width of the whitespace ring around each wrapped
	// region in micrometres. Zero selects a default of two row heights.
	RingWidth float64
	// HotCellFactor marks a cell as hot when its power exceeds
	// HotCellFactor times the average cell power inside the detected
	// hotspot box. Zero selects the default of 1.0.
	HotCellFactor float64
}

// DefaultWrapperOptions returns the settings used in the experiments.
func DefaultWrapperOptions(powerOf func(*netlist.Instance) float64) WrapperOptions {
	return WrapperOptions{PowerOf: powerOf, HotCellFactor: 1.0}
}

// HotspotWrapperDelta applies the paper's second technique to each detected
// hotspot: a wrapper region around the hotspot is isolated by a "whitespace
// ring" of filler cells, the cells that do not belong to the hotspot are
// moved outside the wrapper, and the remaining hot cells are redistributed
// uniformly over the wrapped region so they are no longer tightly grouped.
// The core outline does not change, so the area overhead is whatever
// whitespace the starting placement already had: the paper applies HW on
// top of a Default utilization-relaxed placement.
//
// The transform never modifies its input placement. It returns the wrapped
// placement and the place.Delta between the input and the result — the hot
// cells that were spread, the bystanders that were pushed out, whatever the
// legalizer then touched, and the nets those moves dirtied. Wrapping is a
// local edit, so the delta is typically small and the sweep re-estimates
// only a fraction of the power report for an HW point.
func HotspotWrapperDelta(p *place.Placement, spots []hotspot.Hotspot, opts WrapperOptions) (*place.Placement, *place.Delta, error) {
	if opts.PowerOf == nil {
		return nil, nil, fmt.Errorf("core: wrapper needs a PowerOf function")
	}
	if len(spots) == 0 {
		return nil, nil, fmt.Errorf("core: wrapper needs at least one hotspot")
	}
	if opts.RingWidth <= 0 {
		opts.RingWidth = 2 * p.FP.RowHeight
	}
	if opts.HotCellFactor <= 0 {
		opts.HotCellFactor = 1.0
	}
	// The wrapped region's area exceeds the hotspot's bounding box by
	// 1/utilization of the starting placement (the wrapper soaks up the
	// placement's average whitespace share), clamped to [1.2, 3], so the
	// hot cells end up with more room than they currently occupy.
	expand := 1.5
	if util := p.Utilization(); util > 0 && util < 1 {
		expand = geom.Clamp(1/util, 1.2, 3.0)
	}

	out := p.Clone()
	out.BeginDelta()
	core := out.FP.Core

	// "Hot" cells — the source of a hotspot — are those whose power exceeds
	// the design average (times HotCellFactor). The average does not depend
	// on the hotspot, so one pass over the design serves every wrapper.
	designTotal, designCount := 0.0, 0
	for _, inst := range out.Design.Instances() {
		if inst.IsFiller() {
			continue
		}
		designTotal += opts.PowerOf(inst)
		designCount++
	}
	threshold := 0.0
	if designCount > 0 {
		threshold = designTotal / float64(designCount) * opts.HotCellFactor
	}

	for _, h := range spots {
		hotBox, outer, inner, ok := wrapperRegions(h.Rect, core, out.FP, expand, opts.RingWidth)
		if !ok {
			continue
		}

		// Partition the cells inside the wrapped region: the hot cells stay
		// and are spread out, and everything else is a bystander that gets
		// moved outside the wrapper, exactly as the paper's exclusive move
		// bounds would do.
		inside := out.InstancesInRect(outer)
		if len(inside) == 0 {
			continue
		}
		var hotCells, coldCells []*netlist.Instance
		for _, inst := range inside {
			if opts.PowerOf(inst) >= threshold {
				hotCells = append(hotCells, inst)
			} else {
				coldCells = append(coldCells, inst)
			}
		}
		if len(hotCells) == 0 {
			continue
		}

		// The hot cells must fit in the inner region with some slack; when
		// they do not, give up on the ring for this hotspot and use the
		// full wrapped region instead of failing.
		hotWidth := 0.0
		for _, inst := range hotCells {
			hotWidth += inst.Master.Width
		}
		rowCapacity := func(r geom.Rect) float64 {
			rows := int(r.H() / out.FP.RowHeight)
			return float64(rows) * r.W()
		}
		if hotWidth > 0.9*rowCapacity(inner) {
			inner = outer
		}
		if hotWidth > 0.95*rowCapacity(inner) {
			// Even the full wrapper cannot hold the hot cells with slack;
			// wrapping would concentrate rather than spread them, so skip.
			continue
		}

		// Move the cold cells just outside the wrapper: each is pushed out
		// past the nearer edge (plus the ring), and the legalizer then finds
		// them real sites in the surrounding whitespace. This mirrors the
		// "exclusive move bound" a commercial tool would use.
		for _, inst := range coldCells {
			l, _ := out.Loc(inst)
			y := out.FP.Rows[l.Row].Y
			c := out.Center(inst)
			distLeft := c.X - outer.Xlo
			distRight := outer.Xhi - c.X
			distDown := c.Y - outer.Ylo
			distUp := outer.Yhi - c.Y
			minDist := distLeft
			target := geom.Point{X: outer.Xlo - opts.RingWidth - inst.Master.Width, Y: y}
			if distRight < minDist {
				minDist = distRight
				target = geom.Point{X: outer.Xhi + opts.RingWidth, Y: y}
			}
			if distDown < minDist {
				minDist = distDown
				target = geom.Point{X: l.X, Y: outer.Ylo - opts.RingWidth - out.FP.RowHeight}
			}
			if distUp < minDist {
				target = geom.Point{X: l.X, Y: outer.Yhi + opts.RingWidth}
			}
			// Clamp into the core; the legalizer resolves any pile-ups.
			target.X = geom.Clamp(target.X, core.Xlo, core.Xhi-inst.Master.Width)
			target.Y = geom.Clamp(target.Y, core.Ylo, core.Yhi-out.FP.RowHeight)
			row := out.FP.RowAt(target.Y + out.FP.RowHeight/2)
			out.SetLoc(inst, place.Loc{X: target.X, Row: row.Index})
		}

		// Redistribute the hot cells uniformly over the inner region by
		// scaling their positions about the hotspot centre. Scaling (rather
		// than re-packing) keeps every cell's neighbours unchanged, so the
		// disturbance to wirelength and timing stays local, as the paper
		// requires; the legalizer then snaps the scaled positions onto rows
		// and sites.
		cx, cy := hotBox.Center().X, hotBox.Center().Y
		sx := inner.W() / hotBox.W()
		sy := inner.H() / hotBox.H()
		if sx < 1 {
			sx = 1
		}
		if sy < 1 {
			sy = 1
		}
		icx, icy := inner.Center().X, inner.Center().Y
		for _, inst := range hotCells {
			l, _ := out.Loc(inst)
			c := out.Center(inst)
			nx := icx + (c.X-cx)*sx - inst.Master.Width/2
			ny := icy + (c.Y-cy)*sy - out.FP.RowHeight/2
			nx = geom.Clamp(nx, inner.Xlo, inner.Xhi-inst.Master.Width)
			ny = geom.Clamp(ny, inner.Ylo, inner.Yhi-out.FP.RowHeight)
			row := out.FP.RowAt(ny + out.FP.RowHeight/2)
			l.X, l.Row = nx, row.Index
			out.SetLoc(inst, l)
		}
	}

	place.Legalize(out)
	place.InsertFillers(out)
	return out, out.EndDelta(), nil
}

// wrapperRegions returns the wrapper's geometry around one hotspot inside
// the core: the hotspot box clipped to the core; the wrapped (outer)
// region, that box grown so its area increases by the expansion factor,
// clipped to the core; and the inner region, where the hot cells will
// live, which excludes the whitespace ring of the given width. ok is false
// when the hotspot misses the core or is too small to wrap meaningfully
// (an inner region narrower than four sites or lower than one row).
func wrapperRegions(spot, core geom.Rect, fp *floorplan.Floorplan, expand, ring float64) (hotBox, outer, inner geom.Rect, ok bool) {
	hotBox = spot.Intersect(core)
	if hotBox.Empty() {
		return hotBox, outer, inner, false
	}
	growth := (math.Sqrt(expand) - 1) / 2
	outer = hotBox.Expand(growth * (hotBox.W() + hotBox.H()) / 2).Intersect(core)
	inner = outer.Expand(-ring).Intersect(core)
	ok = !inner.Empty() && inner.W() >= 4*fp.SiteWidth && inner.H() >= fp.RowHeight
	return hotBox, outer, inner, ok
}
