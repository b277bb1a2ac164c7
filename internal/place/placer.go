package place

import (
	"fmt"
	"slices"
	"sort"

	"thermplace/internal/floorplan"
	"thermplace/internal/geom"
	"thermplace/internal/netlist"
)

// Place produces a legal region-constrained placement of the design inside
// the floorplan:
//
//   - every logical unit is placed inside its floorplan region,
//   - within a region, cells are packed row by row in connectivity order so
//     that most nets stay within a row or between adjacent rows (the
//     property the paper relies on for the near-zero timing overhead of
//     empty-row insertion),
//   - the whitespace implied by the utilization factor is distributed
//     uniformly inside each region, mimicking a commercial placer's
//     density-balanced result,
//   - top-level ports are assigned pad positions around the core boundary.
//
// The result is legalized and filler cells are inserted into the remaining
// gaps, so the returned placement passes Validate.
func Place(d *netlist.Design, fp *floorplan.Floorplan) (*Placement, error) {
	p, err := PlaceWithoutFillers(d, fp)
	if err != nil {
		return nil, err
	}
	InsertFillers(p)
	return p, nil
}

// PlaceWithoutFillers runs the same global placement and legalization as
// Place but skips the filler-insertion pass. Callers that refine the
// placement afterwards (flow.PlaceAtAspect with RefinePasses > 0) use it so
// the whitespace is filled exactly once, on the final cell positions.
func PlaceWithoutFillers(d *netlist.Design, fp *floorplan.Floorplan) (*Placement, error) {
	p := NewPlacement(d, fp)
	groups, err := orderedUnitGroups(d, fp)
	if err != nil {
		return nil, err
	}
	p.unitOrder = groups
	if err := spreadUnits(p, groups); err != nil {
		return nil, err
	}
	placePorts(p)
	Legalize(p)
	return p, nil
}

// unitGroup is one logical unit's cells in the connectivity order the global
// placer packs them. The grouping and the BFS order depend only on the
// frozen netlist (region shapes never enter), so a placement caches its
// groups and derived placements (Reflow) reuse them verbatim.
type unitGroup struct {
	unit  string
	cells []*netlist.Instance
}

// orderedUnitGroups groups the non-filler instances by unit — untagged cells
// join the unit whose region carries the largest cell area, mirroring the
// floorplanner's area fold — and orders every group by connectivity.
func orderedUnitGroups(d *netlist.Design, fp *floorplan.Floorplan) ([]unitGroup, error) {
	groups := make(map[string][]*netlist.Instance)
	for _, inst := range d.Instances() {
		if inst.IsFiller() {
			continue
		}
		groups[inst.Unit] = append(groups[inst.Unit], inst)
	}
	if untagged, ok := groups[""]; ok && len(groups) > 1 {
		delete(groups, "")
		largest, largestArea := "", -1.0
		for unit := range groups {
			if reg := fp.RegionOf(unit); reg != nil && reg.CellArea > largestArea {
				largest, largestArea = unit, reg.CellArea
			}
		}
		if largest == "" {
			return nil, fmt.Errorf("place: cannot assign untagged cells: no unit regions")
		}
		groups[largest] = append(groups[largest], untagged...)
	}

	unitNames := make([]string, 0, len(groups))
	for u := range groups {
		unitNames = append(unitNames, u)
	}
	sort.Strings(unitNames)

	out := make([]unitGroup, 0, len(unitNames))
	for _, unit := range unitNames {
		out = append(out, unitGroup{unit: unit, cells: orderByConnectivity(d, groups[unit])})
	}
	return out, nil
}

// spreadUnits packs every unit group into its floorplan region.
func spreadUnits(p *Placement, groups []unitGroup) error {
	for _, g := range groups {
		region := p.FP.Core
		if reg := p.FP.RegionOf(g.unit); reg != nil {
			region = reg.Rect
		}
		if err := placeInRegion(p, g.cells, region); err != nil {
			return fmt.Errorf("place: unit %q: %w", g.unit, err)
		}
	}
	return nil
}

// orderByConnectivity orders cells with a breadth-first traversal of the
// connectivity graph restricted to the given cell set, starting from the
// first cell in creation order. Cells unreachable from earlier seeds start
// new BFS waves, so the result is a locality-preserving linear order.
// Membership and visit state are tracked in ordinal-indexed bit slices: the
// traversal touches every pin of every cell, and pointer-keyed maps used to
// dominate the whole placement profile here.
func orderByConnectivity(d *netlist.Design, cells []*netlist.Instance) []*netlist.Instance {
	inSet := make([]bool, d.NumInstances())
	for _, c := range cells {
		inSet[c.Ord()] = true
	}
	visited := make([]bool, d.NumInstances())
	out := make([]*netlist.Instance, 0, len(cells))
	queue := make([]*netlist.Instance, 0, len(cells))

	visit := func(inst *netlist.Instance) {
		if inst == nil || inst.Ord() >= len(inSet) || !inSet[inst.Ord()] || visited[inst.Ord()] {
			return
		}
		visited[inst.Ord()] = true
		queue = append(queue, inst)
	}

	head := 0
	for _, seed := range cells {
		if visited[seed.Ord()] {
			continue
		}
		visit(seed)
		for ; head < len(queue); head++ {
			cur := queue[head]
			out = append(out, cur)
			// Neighbours: all instances sharing a net with cur, visited in
			// the master's pin order so the traversal is deterministic.
			for _, pin := range cur.Master.Pins {
				net := cur.Conn(pin.Name)
				if net == nil {
					continue
				}
				// Skip very high fanout nets (clock-like) to avoid
				// collapsing locality.
				if len(net.Loads) > 32 {
					continue
				}
				visit(net.Driver.Inst)
				for _, l := range net.Loads {
					visit(l.Inst)
				}
			}
		}
	}
	return out
}

// placeInRegion packs the ordered cells into the rows overlapping the
// region, spreading the region's whitespace uniformly between cells.
func placeInRegion(p *Placement, cells []*netlist.Instance, region geom.Rect) error {
	if len(cells) == 0 {
		return nil
	}
	fp := p.FP
	// Rows overlapping the region by at least minOverlap vertically.
	rowsFor := func(minOverlap float64) []floorplan.Row {
		var rows []floorplan.Row
		for _, r := range fp.Rows {
			rr := r.Rect(fp.RowHeight)
			overlap := rr.Intersect(region)
			if overlap.H() >= minOverlap {
				rows = append(rows, floorplan.Row{
					Index: r.Index,
					Y:     r.Y,
					X0:    max(r.X0, region.Xlo),
					X1:    min(r.X1, region.Xhi),
				})
			}
		}
		return rows
	}
	capacityOf := func(rows []floorplan.Row) float64 {
		capacity := 0.0
		for _, r := range rows {
			capacity += r.Width()
		}
		return capacity
	}
	totalWidth := 0.0
	for _, c := range cells {
		totalWidth += c.Master.Width
	}
	rows := rowsFor(fp.RowHeight / 2)
	capacity := capacityOf(rows)
	// Row quantization can starve small regions: a region only fractionally
	// taller than its integral row count loses the partial row to the
	// half-height filter, and with many small units that loss can exceed the
	// utilization slack. Grow the row set progressively — partial-overlap
	// rows first, then row segments widened beyond the region — rather than
	// failing; the legalizer pulls any stragglers back to legality.
	if totalWidth > capacity {
		if grown := rowsFor(1e-9 * fp.RowHeight); capacityOf(grown) > capacity {
			rows, capacity = grown, capacityOf(grown)
		}
	}
	if totalWidth > capacity && len(rows) > 0 {
		deficit := totalWidth - capacity
		grow := deficit/float64(len(rows))/2 + fp.SiteWidth
		for i := range rows {
			full := fp.Rows[rows[i].Index]
			rows[i].X0 = max(full.X0, rows[i].X0-grow)
			rows[i].X1 = min(full.X1, rows[i].X1+grow)
		}
		capacity = capacityOf(rows)
		if totalWidth > capacity {
			// Last resort: use the full width of every overlapping row. The
			// cells drift outside their unit region, but the placement stays
			// feasible and Legalize keeps it legal.
			for i := range rows {
				full := fp.Rows[rows[i].Index]
				rows[i].X0, rows[i].X1 = full.X0, full.X1
			}
			capacity = capacityOf(rows)
		}
	}
	if len(rows) == 0 {
		return fmt.Errorf("no rows overlap region %v", region)
	}
	if totalWidth > capacity {
		return fmt.Errorf("cells (%.1f um) exceed region row capacity (%.1f um)", totalWidth, capacity)
	}
	// Distribute cells to rows proportionally to row width so every row gets
	// the same local utilization, then spread within the row. Only cells
	// placed by this call are tracked here: other units' cells in shared
	// boundary rows are never disturbed.
	targetPerRow := make([]float64, len(rows))
	for i, r := range rows {
		targetPerRow[i] = totalWidth * r.Width() / capacity
	}
	placedInRow := make([][]*netlist.Instance, len(rows))
	widthInRow := make([]float64, len(rows))
	ci := 0
	for i, r := range rows {
		for ci < len(cells) {
			c := cells[ci]
			if widthInRow[i]+c.Master.Width > r.Width() {
				break
			}
			// Stop once the proportional target is met (except in the last
			// row, which absorbs whatever remains and fits).
			if i < len(rows)-1 && widthInRow[i] >= targetPerRow[i] {
				break
			}
			placedInRow[i] = append(placedInRow[i], c)
			widthInRow[i] += c.Master.Width
			ci++
		}
	}
	// Leftovers from rounding or capacity-limited rows: append to any region
	// row that still has space for them.
	for i, r := range rows {
		if ci >= len(cells) {
			break
		}
		for ci < len(cells) && widthInRow[i]+cells[ci].Master.Width <= r.Width() {
			placedInRow[i] = append(placedInRow[i], cells[ci])
			widthInRow[i] += cells[ci].Master.Width
			ci++
		}
	}
	// Fragmentation fallback: the region has enough total capacity (checked
	// above) but no single row has room for the next cell. Put each stray
	// cell into the row with the most free space, accepting a temporary
	// overflow of at most one cell width; the legalizer run by Place spills
	// it into an adjacent row afterwards.
	for ci < len(cells) {
		best, bestFree := -1, -1.0
		for i, r := range rows {
			if free := r.Width() - widthInRow[i]; free > bestFree {
				best, bestFree = i, free
			}
		}
		c := cells[ci]
		placedInRow[best] = append(placedInRow[best], c)
		widthInRow[best] += c.Master.Width
		ci++
	}
	for i, r := range rows {
		spreadInRow(p, placedInRow[i], r, widthInRow[i])
	}
	return nil
}

// spreadInRow places the cells left to right in the row segment, inserting
// equal gaps so that the row's whitespace is uniformly distributed.
func spreadInRow(p *Placement, cells []*netlist.Instance, r floorplan.Row, usedWidth float64) {
	if len(cells) == 0 {
		return
	}
	fp := p.FP
	slack := r.Width() - usedWidth
	if slack < 0 {
		slack = 0
	}
	gap := slack / float64(len(cells)+1)
	x := r.X0 + gap
	for _, c := range cells {
		sx := snapDown(x-fp.Core.Xlo, fp.SiteWidth) + fp.Core.Xlo
		if sx < r.X0 {
			sx = r.X0
		}
		p.SetLoc(c, Loc{X: sx, Row: r.Index})
		x = sx + c.Master.Width + gap
	}
}

// placePorts assigns pad locations around the core boundary, inputs along
// the left and bottom edges and outputs along the right and top edges.
func placePorts(p *Placement) {
	var ins, outs []*netlist.Port
	for _, port := range p.Design.Ports() {
		if port.Dir == netlist.In {
			ins = append(ins, port)
		} else {
			outs = append(outs, port)
		}
	}
	core := p.FP.Core
	perim := func(ports []*netlist.Port, start, end geom.Point, altStart, altEnd geom.Point) {
		n := len(ports)
		if n == 0 {
			return
		}
		half := (n + 1) / 2
		for i, port := range ports {
			if i < half {
				t := float64(i+1) / float64(half+1)
				p.SetPortLoc(port, geom.Point{X: start.X + t*(end.X-start.X), Y: start.Y + t*(end.Y-start.Y)})
			} else {
				t := float64(i-half+1) / float64(n-half+1)
				p.SetPortLoc(port, geom.Point{X: altStart.X + t*(altEnd.X-altStart.X), Y: altStart.Y + t*(altEnd.Y-altStart.Y)})
			}
		}
	}
	perim(ins,
		geom.Point{X: core.Xlo, Y: core.Ylo}, geom.Point{X: core.Xlo, Y: core.Yhi},
		geom.Point{X: core.Xlo, Y: core.Ylo}, geom.Point{X: core.Xhi, Y: core.Ylo})
	perim(outs,
		geom.Point{X: core.Xhi, Y: core.Ylo}, geom.Point{X: core.Xhi, Y: core.Yhi},
		geom.Point{X: core.Xlo, Y: core.Yhi}, geom.Point{X: core.Xhi, Y: core.Yhi})
}

// RefineHPWL performs a bounded greedy detailed-placement pass: it sweeps
// every row and swaps adjacent cells when doing so reduces the total
// half-perimeter wirelength of the nets touching them by more than 1e-9 um.
// It returns the number of accepted swaps. The pass preserves legality
// (swapped cells exchange positions adjusted for their widths).
//
// Each row is swept in its (X, Name) order as it stood when the sweep
// reached it. A candidate is priced without moving anything (swapDelta),
// and an accepted swap exchanges the pair's row entries in O(1) (doSwap).
// Neither rescans a net whose box the swap cannot change: swapDelta skips
// its zero term and doSwap keeps its cached box valid. Every Loc, row
// bucket, cached box and the swap count are == to trying each swap with
// SetLoc and recomputing every touched box from its pins.
func RefineHPWL(p *Placement, passes int) int {
	accepted := 0
	// occ is the row being swept, copied because a SetLoc fallback
	// reorders the bucket; one buffer serves every row and pass.
	var occ []int32
	for pass := 0; pass < passes; pass++ {
		improvedThisPass := 0
		for row := 0; row < p.FP.NumRows(); row++ {
			occ = append(occ[:0], p.rowBucket(row)...)
			for i := 0; i+1 < len(occ); i++ {
				a, b := p.insts[occ[i]], p.insts[occ[i+1]]
				if delta := swapDelta(p, a, b); delta < -1e-9 {
					doSwap(p, a, b)
					occ[i], occ[i+1] = occ[i+1], occ[i]
					accepted++
					improvedThisPass++
				}
			}
		}
		if improvedThisPass == 0 {
			break
		}
	}
	return accepted
}

// swapTargets returns where a swap of adjacent cells a and b (at la and
// lb) moves them: b to the pair's left edge, a right after it.
func swapTargets(la, lb Loc, b *netlist.Instance) (newA, newB Loc) {
	newB = la
	if lb.X < la.X {
		newB = lb
	}
	newA = newB
	newA.X += b.Master.Width
	return newA, newB
}

// swapSpan returns the lowest and highest pin X of cells a and b before and
// after a swap moves them to newAX and newBX, each a cell centre in
// computeNetBBox's arithmetic. A net box with Xlo < lo and Xhi > hi takes
// both X extremes from other pins, which do not move, and a swap keeps Y,
// so the swap leaves that box ==.
func swapSpan(la, lb Loc, a, b *netlist.Instance, newAX, newBX float64) (lo, hi float64) {
	centre := func(x float64, inst *netlist.Instance) float64 { return (x + (x + inst.Master.Width)) / 2 }
	ca, cb, na, nb := centre(la.X, a), centre(lb.X, b), centre(newAX, a), centre(newBX, b)
	return min(ca, cb, na, nb), max(ca, cb, na, nb)
}

// swapDelta returns the change in HPWL caused by swapping adjacent cells a
// and b (negative is an improvement). A swap within a row changes only the
// two cells' X coordinates, so per net the bounding-box height is unchanged
// and the HPWL delta reduces to the change of the box width: the "before"
// width comes from the cached net bounding box and the "after" width from an
// X-only pin scan with the post-swap coordinates substituted in. The terms
// are summed in a fixed order: a's nets, then b's that a does not share.
//
// A net whose box strictly contains the pair's span (swapSpan) is not
// scanned: its term is exactly 0.0, and adding 0.0 changes no bit of a sum
// that starts at +0.0 and so is never -0.0. No trial move mutates the
// placement and nothing is allocated per candidate swap.
func swapDelta(p *Placement, a, b *netlist.Instance) float64 {
	la, _ := p.Loc(a)
	lb, _ := p.Loc(b)
	newA, newB := swapTargets(la, lb, b)
	lo, hi := swapSpan(la, lb, a, b, newA.X, newB.X)
	term := func(netOrd int32) float64 {
		n := p.nets[netOrd]
		box := p.NetBBox(n)
		if box.Xlo < lo && box.Xhi > hi {
			return 0
		}
		return p.netWidthIfSwapped(n, a, b, newA.X, newB.X) - box.W()
	}
	aNets := p.instNets[a.Ord()]
	delta := 0.0
	for _, netOrd := range aNets {
		delta += term(netOrd)
	}
	for _, netOrd := range p.instNets[b.Ord()] {
		if !slices.Contains(aNets, netOrd) {
			delta += term(netOrd)
		}
	}
	return delta
}

// netWidthIfSwapped computes the width of the net's pin bounding box as it
// would be with instances a and b moved to X coordinates ax and bx, scanning
// pins in the same driver-then-loads order — and with the same
// CellRect().Center() arithmetic — as computeNetBBox, so the result matches
// a post-move recomputation bit for bit.
func (p *Placement) netWidthIfSwapped(n *netlist.Net, a, b *netlist.Instance, ax, bx float64) float64 {
	var xlo, xhi float64
	found := false
	pinX := func(ref netlist.PinRef) (float64, bool) {
		if ref.IsPort() {
			pt, ok := p.PortLoc(ref.Port)
			return pt.X, ok
		}
		if ref.Inst == nil {
			return 0, false
		}
		l, ok := p.Loc(ref.Inst)
		if !ok {
			return 0, false
		}
		x := l.X
		switch ref.Inst {
		case a:
			x = ax
		case b:
			x = bx
		}
		return (x + (x + ref.Inst.Master.Width)) / 2, true
	}
	if x, ok := pinX(n.Driver); ok {
		xlo, xhi = x, x
		found = true
	}
	for _, ld := range n.Loads {
		x, ok := pinX(ld)
		if !ok {
			continue
		}
		if !found {
			xlo, xhi = x, x
			found = true
			continue
		}
		if x < xlo {
			xlo = x
		}
		if x > xhi {
			xhi = x
		}
	}
	if !found || xhi <= xlo {
		// Mirror geom.Rect.W's degenerate-box clamp.
		return 0
	}
	return xhi - xlo
}

// doSwap exchanges the positions of two adjacent cells a and b of one row,
// as swapDelta priced it: b moves to the pair's left edge and a right after
// it. The row entries are exchanged in O(1) (swapInRow), with SetLoc as the
// fallback. Like SetLoc, the move invalidates the boxes of the nets touching
// a moved cell, except those whose box was valid and strictly contains the
// pair's span (swapSpan): the swap cannot change them, so they stay valid.
func doSwap(p *Placement, a, b *netlist.Instance) {
	la, _ := p.Loc(a)
	lb, _ := p.Loc(b)
	newA, newB := swapTargets(la, lb, b)
	lo, hi := swapSpan(la, lb, a, b, newA.X, newB.X)
	// A cell has at most four distinct nets (AddMaster's three inputs and
	// one output); a net that does not fit in keep is simply invalidated.
	var keep [8]int32
	kept := 0
	for _, nets := range [2][]int32{p.instNets[a.Ord()], p.instNets[b.Ord()]} {
		for _, netOrd := range nets {
			if kept < len(keep) && p.netBoxValid[netOrd] &&
				p.netBox[netOrd].Xlo < lo && p.netBox[netOrd].Xhi > hi {
				keep[kept] = netOrd
				kept++
			}
		}
	}
	if !p.swapInRow(a, b, newA.X, newB.X) {
		p.SetLoc(b, newB)
		p.SetLoc(a, newA)
	}
	for _, netOrd := range keep[:kept] {
		p.netBoxValid[netOrd] = true
	}
}

func snapDown(v, step float64) float64 {
	if step <= 0 {
		return v
	}
	n := int(v / step)
	return float64(n) * step
}
