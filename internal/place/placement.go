// Package place provides a row-based standard-cell placement engine: a
// placement data model (cell locations, fillers, wirelength and density
// queries), a region-constrained global placer, a Tetris-style legalizer and
// a filler-insertion pass. Together they stand in for the commercial
// floorplanning/placement tool (Synopsys IC Compiler) used by the paper.
package place

import (
	"fmt"
	"math"
	"sort"

	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
	"thermplace/internal/geom"
	"thermplace/internal/netlist"
)

// Loc is the placed location of a cell instance: the lower-left corner of
// its bounding box and the row index it sits in.
type Loc struct {
	X, Y float64
	Row  int
}

// Filler is one dummy cell inserted into leftover row whitespace. Fillers
// are tracked in the placement rather than the netlist because they carry no
// electrical function; they exist to keep rail continuity and to make the
// whitespace accounting explicit, as in the paper.
type Filler struct {
	Master *celllib.Master
	X, Y   float64
	Row    int
}

// Rect returns the physical rectangle of the filler cell.
func (f Filler) Rect(rowHeight float64) geom.Rect {
	return geom.Rect{Xlo: f.X, Ylo: f.Y, Xhi: f.X + f.Master.Width, Yhi: f.Y + rowHeight}
}

// Placement binds a design to cell locations within a floorplan.
//
// Internally every per-instance, per-net and per-port attribute is stored in
// a dense slice keyed by the netlist ordinals (Instance.Ord, Net.Ord,
// Port.Ord) rather than in maps, and per-row occupancy lists are maintained
// incrementally by SetLoc, so row queries (rowOccupants, Validate,
// InsertFillers) cost O(row size) instead of a scan over
// all instances. Net bounding boxes are cached and invalidated per SetLoc,
// except that a refinement swap keeps the boxes it cannot change.
//
// The placement assumes the design's structure (instances, nets, pin
// connections) is frozen once the placement exists: connecting new pins to
// an already-cached net afterwards would not invalidate its cached bounding
// box. All construction paths in this repository build the netlist fully
// before placing it.
type Placement struct {
	Design *netlist.Design
	FP     *floorplan.Floorplan

	insts []*netlist.Instance // Design.Instances(), indexed by ordinal
	nets  []*netlist.Net      // Design.Nets(), indexed by ordinal

	locs   []Loc  // by instance ordinal
	placed []bool // by instance ordinal

	portLocs  []geom.Point // by port ordinal
	portKnown []bool       // by port ordinal

	// rowOcc[row] lists the ordinals of the instances placed in that row,
	// kept sorted by (X, Name); rowPos[ord] is the instance's index within
	// its row list (-1 when unplaced or in a negative row). strays collects
	// placed instances with a negative row index, which cannot be bucketed.
	rowOcc [][]int32
	rowPos []int32
	strays []int32

	// misaligned[ord] marks a placed instance whose Y deviates from its
	// row's Y by more than half a row height (or whose row index is outside
	// the floorplan). While misalignedCount is zero, geometric queries may
	// prune by row index; otherwise they fall back to a full scan so the
	// row buckets never change observable results.
	misaligned      []bool
	misalignedCount int

	// netBox caches per-net pin bounding boxes; SetLoc and SetPortLoc
	// invalidate the nets touching the moved cell or port, and doSwap those
	// a swap may change.
	netBox      []geom.Rect
	netBoxValid []bool

	// instNets[ord] lists the distinct net ordinals touching the instance,
	// in master pin order. It is derived from the (frozen) netlist once and
	// shared between clones.
	instNets [][]int32

	// unitOrder caches the per-unit connectivity-ordered cell lists the
	// global placer computed, so derived placements (Reflow) can re-spread
	// the design into a resized floorplan without re-running the BFS
	// ordering. It depends only on the frozen netlist and is shared between
	// clones; nil on placements not built by the global placer.
	unitOrder []unitGroup

	// rec, when non-nil, accumulates SetLoc moves into a Delta (see
	// BeginDelta/EndDelta). It is never shared: Clone drops it.
	rec *deltaRecorder

	// Fillers are the dummy cells occupying whitespace.
	Fillers []Filler
}

// NewPlacement creates an empty placement for the design and floorplan.
func NewPlacement(d *netlist.Design, fp *floorplan.Floorplan) *Placement {
	p := &Placement{
		Design:      d,
		FP:          fp,
		insts:       d.Instances(),
		nets:        d.Nets(),
		locs:        make([]Loc, d.NumInstances()),
		placed:      make([]bool, d.NumInstances()),
		portLocs:    make([]geom.Point, len(d.Ports())),
		portKnown:   make([]bool, len(d.Ports())),
		rowOcc:      make([][]int32, fp.NumRows()),
		rowPos:      make([]int32, d.NumInstances()),
		misaligned:  make([]bool, d.NumInstances()),
		netBox:      make([]geom.Rect, d.NumNets()),
		netBoxValid: make([]bool, d.NumNets()),
	}
	for i := range p.rowPos {
		p.rowPos[i] = -1
	}
	p.instNets = buildInstNets(d)
	return p
}

// buildInstNets collects, for every instance, the distinct ordinals of the
// nets on its pins, iterating in master pin order so the result (and every
// computation that walks it) is deterministic. All per-instance lists are
// sub-slices of one backing array: the pin count bounds the total size, so
// the backing never reallocates and the whole index costs two allocations.
func buildInstNets(d *netlist.Design) [][]int32 {
	insts := d.Instances()
	out := make([][]int32, len(insts))
	total := 0
	for _, inst := range insts {
		total += len(inst.Master.Pins)
	}
	backing := make([]int32, 0, total)
	for i, inst := range insts {
		start := len(backing)
		for _, pin := range inst.Master.Pins {
			n := inst.Conn(pin.Name)
			if n == nil {
				continue
			}
			ord := int32(n.Ord())
			dup := false
			for _, seen := range backing[start:] {
				if seen == ord {
					dup = true
					break
				}
			}
			if !dup {
				backing = append(backing, ord)
			}
		}
		out[i] = backing[start:len(backing):len(backing)]
	}
	return out
}

// ensureInst grows the per-instance slices when the design gained instances
// after the placement was created (which no current construction path does,
// but an index panic would be a far worse failure mode than a rebuild).
func (p *Placement) ensureInst(ord int) {
	if ord < len(p.locs) {
		return
	}
	p.insts = p.Design.Instances()
	p.nets = p.Design.Nets()
	n := p.Design.NumInstances()
	if ord >= n {
		n = ord + 1
	}
	grown := make([]Loc, n)
	copy(grown, p.locs)
	p.locs = grown
	p.placed = append(p.placed, make([]bool, n-len(p.placed))...)
	p.misaligned = append(p.misaligned, make([]bool, n-len(p.misaligned))...)
	pos := make([]int32, n)
	copy(pos, p.rowPos)
	for i := len(p.rowPos); i < n; i++ {
		pos[i] = -1
	}
	p.rowPos = pos
	p.instNets = buildInstNets(p.Design)
}

// rowAligned reports whether the location's Y sits within half a row height
// of its row's Y coordinate, the invariant the row-pruned geometric queries
// rely on.
func (p *Placement) rowAligned(l Loc) bool {
	if l.Row < 0 || l.Row >= len(p.FP.Rows) {
		return false
	}
	return math.Abs(l.Y-p.FP.Rows[l.Row].Y) <= p.FP.RowHeight/2
}

// SetLoc places (or re-places) the instance at loc, maintaining the per-row
// occupancy lists and invalidating the cached bounding boxes of the nets
// touching the instance; a call that leaves the location as it was changes
// nothing. The box cache's contract is that a box marked valid is == to
// computeNetBBox over the current locations, so every move must invalidate
// each box it can change. RefineHPWL's swaps keep valid only the boxes they
// prove unchanged (doSwap).
func (p *Placement) SetLoc(inst *netlist.Instance, loc Loc) {
	ord := inst.Ord()
	p.ensureInst(ord)
	if p.rec != nil && (!p.placed[ord] || p.locs[ord] != loc) {
		p.record(ord)
	}
	if p.placed[ord] {
		if p.locs[ord] == loc {
			return
		}
		p.removeFromRow(ord)
		if p.misaligned[ord] {
			p.misaligned[ord] = false
			p.misalignedCount--
		}
	}
	p.locs[ord] = loc
	p.placed[ord] = true
	if loc.Row >= 0 {
		p.insertIntoRow(ord, inst, loc)
	} else {
		p.rowPos[ord] = -1
		p.strays = append(p.strays, int32(ord))
	}
	if !p.rowAligned(loc) {
		p.misaligned[ord] = true
		p.misalignedCount++
	}
	p.invalidateNets(ord)
}

// invalidateNets marks stale the cached boxes of the nets touching the
// instance.
func (p *Placement) invalidateNets(ord int) {
	for _, netOrd := range p.instNets[ord] {
		if int(netOrd) < len(p.netBoxValid) {
			p.netBoxValid[netOrd] = false
		}
	}
}

// swapInRow moves cells a and b, which sit next to each other in one row
// bucket (a first) at one Y, to newAX and newBX with b now first. It leaves
// the locations, bucket, rowPos, recorded moves and invalidated boxes that
// SetLoc on b and then on a would, but exchanges the two entries in O(1)
// where SetLoc's removal and re-insertion renumber the rest of the row.
// Instance names are unique, so a bucket sorted by (X, Name) has one order,
// and the exchange gives it whenever b then a sorts strictly between the
// pair's neighbours. Otherwise it changes nothing and reports false, and
// the caller falls back to SetLoc; only an unlegalized row, whose cells
// overlap, can need that.
func (p *Placement) swapInRow(a, b *netlist.Instance, newAX, newBX float64) bool {
	ao, bo := a.Ord(), b.Ord()
	la, lb := p.locs[ao], p.locs[bo]
	i := int(p.rowPos[ao])
	if la.Row != lb.Row || la.Y != lb.Y || i < 0 || int(p.rowPos[bo]) != i+1 {
		return false
	}
	bucket := p.rowOcc[la.Row]
	before := func(x float64, n string, x2 float64, n2 string) bool { return x < x2 || x == x2 && n < n2 }
	if i > 0 && !before(p.locs[bucket[i-1]].X, p.insts[bucket[i-1]].Name, newBX, b.Name) ||
		!before(newBX, b.Name, newAX, a.Name) ||
		i+2 < len(bucket) && !before(newAX, a.Name, p.locs[bucket[i+2]].X, p.insts[bucket[i+2]].Name) {
		return false
	}
	bucket[i], bucket[i+1] = int32(bo), int32(ao)
	p.rowPos[bo], p.rowPos[ao] = int32(i), int32(i+1)
	for _, mv := range [2]struct {
		ord int
		x   float64
	}{{bo, newBX}, {ao, newAX}} {
		if p.locs[mv.ord].X == mv.x {
			continue // SetLoc's no-op: not recorded, nothing invalidated
		}
		if p.rec != nil {
			p.record(mv.ord)
		}
		p.locs[mv.ord].X = mv.x
		p.invalidateNets(mv.ord)
	}
	return true
}

// removeFromRow detaches a placed instance from its occupancy bucket (or
// from the stray list when its row was negative).
func (p *Placement) removeFromRow(ord int) {
	pos := p.rowPos[ord]
	if pos < 0 {
		for i, s := range p.strays {
			if s == int32(ord) {
				p.strays = append(p.strays[:i], p.strays[i+1:]...)
				break
			}
		}
		return
	}
	row := p.locs[ord].Row
	bucket := p.rowOcc[row]
	copy(bucket[pos:], bucket[pos+1:])
	bucket = bucket[:len(bucket)-1]
	p.rowOcc[row] = bucket
	for i := int(pos); i < len(bucket); i++ {
		p.rowPos[bucket[i]] = int32(i)
	}
	p.rowPos[ord] = -1
}

// insertIntoRow inserts the instance into its row bucket, keeping the bucket
// sorted by (X, Name). loc must already be stored in p.locs[ord].
func (p *Placement) insertIntoRow(ord int, inst *netlist.Instance, loc Loc) {
	for loc.Row >= len(p.rowOcc) {
		p.rowOcc = append(p.rowOcc, nil)
	}
	bucket := p.rowOcc[loc.Row]
	idx := sort.Search(len(bucket), func(i int) bool {
		o := bucket[i]
		if l := p.locs[o]; l.X != loc.X {
			return l.X > loc.X
		}
		return p.insts[o].Name > inst.Name
	})
	bucket = append(bucket, 0)
	copy(bucket[idx+1:], bucket[idx:])
	bucket[idx] = int32(ord)
	p.rowOcc[loc.Row] = bucket
	for i := idx; i < len(bucket); i++ {
		p.rowPos[bucket[i]] = int32(i)
	}
}

// Loc returns the location of the instance and whether it has been placed.
func (p *Placement) Loc(inst *netlist.Instance) (Loc, bool) {
	ord := inst.Ord()
	if ord >= len(p.locs) || !p.placed[ord] {
		return Loc{}, false
	}
	return p.locs[ord], true
}

// SetPortLoc records the physical position of a top-level port (pad).
func (p *Placement) SetPortLoc(port *netlist.Port, pt geom.Point) {
	ord := port.Ord()
	for ord >= len(p.portLocs) {
		p.portLocs = append(p.portLocs, geom.Point{})
		p.portKnown = append(p.portKnown, false)
	}
	p.portLocs[ord] = pt
	p.portKnown[ord] = true
	if n := port.Net; n != nil && n.Ord() < len(p.netBoxValid) {
		p.netBoxValid[n.Ord()] = false
	}
}

// PortLoc returns the position of a port and whether it is known.
func (p *Placement) PortLoc(port *netlist.Port) (geom.Point, bool) {
	ord := port.Ord()
	if ord >= len(p.portLocs) || !p.portKnown[ord] {
		return geom.Point{}, false
	}
	return p.portLocs[ord], true
}

// CellRect returns the physical rectangle of a placed instance.
func (p *Placement) CellRect(inst *netlist.Instance) (geom.Rect, bool) {
	l, ok := p.Loc(inst)
	if !ok {
		return geom.Rect{}, false
	}
	return geom.Rect{
		Xlo: l.X, Ylo: l.Y,
		Xhi: l.X + inst.Master.Width, Yhi: l.Y + p.FP.RowHeight,
	}, true
}

// Center returns the centre of a placed instance (zero point when unplaced).
func (p *Placement) Center(inst *netlist.Instance) geom.Point {
	r, ok := p.CellRect(inst)
	if !ok {
		return geom.Point{}
	}
	return r.Center()
}

// Clone returns a deep copy of the placement, including a cloned floorplan
// so that post-placement transforms never alias the original. The derived
// per-instance net lists are shared: they depend only on the (immutable)
// design.
func (p *Placement) Clone() *Placement {
	out := &Placement{
		Design:          p.Design,
		FP:              p.FP.Clone(),
		insts:           p.insts,
		nets:            p.nets,
		locs:            append([]Loc(nil), p.locs...),
		placed:          append([]bool(nil), p.placed...),
		portLocs:        append([]geom.Point(nil), p.portLocs...),
		portKnown:       append([]bool(nil), p.portKnown...),
		rowOcc:          make([][]int32, len(p.rowOcc)),
		rowPos:          append([]int32(nil), p.rowPos...),
		strays:          append([]int32(nil), p.strays...),
		misaligned:      append([]bool(nil), p.misaligned...),
		misalignedCount: p.misalignedCount,
		netBox:          append([]geom.Rect(nil), p.netBox...),
		netBoxValid:     append([]bool(nil), p.netBoxValid...),
		instNets:        p.instNets,
		unitOrder:       p.unitOrder,
		Fillers:         append([]Filler(nil), p.Fillers...),
	}
	for i, bucket := range p.rowOcc {
		out.rowOcc[i] = append([]int32(nil), bucket...)
	}
	return out
}

// pinPoint returns the physical point of a net pin reference: the centre of
// the owning cell, or the port pad location.
func (p *Placement) pinPoint(ref netlist.PinRef) (geom.Point, bool) {
	if ref.IsPort() {
		return p.PortLoc(ref.Port)
	}
	if ref.Inst == nil {
		return geom.Point{}, false
	}
	r, ok := p.CellRect(ref.Inst)
	if !ok {
		return geom.Point{}, false
	}
	return r.Center(), true
}

// NetBBox returns the bounding box of all placed pins of the net. The box is
// cached per net and invalidated by SetLoc/SetPortLoc for the nets touching
// the moved cell, so repeated wirelength and power queries on an unchanged
// placement cost a slice load instead of a pin scan.
func (p *Placement) NetBBox(n *netlist.Net) geom.Rect {
	ord := n.Ord()
	if ord < len(p.netBoxValid) && p.netBoxValid[ord] {
		return p.netBox[ord]
	}
	box := p.computeNetBBox(n)
	for ord >= len(p.netBox) {
		p.netBox = append(p.netBox, geom.Rect{})
		p.netBoxValid = append(p.netBoxValid, false)
	}
	p.netBox[ord] = box
	p.netBoxValid[ord] = true
	return box
}

// computeNetBBox accumulates the net's pin bounding box point by point (no
// intermediate slice), in the fixed order driver-then-loads so the result is
// bit-identical across recomputations.
func (p *Placement) computeNetBBox(n *netlist.Net) geom.Rect {
	var box geom.Rect
	found := false
	include := func(pt geom.Point) {
		if !found {
			// A one-point box is degenerate (Empty() is true), so track
			// initialization explicitly rather than via emptiness.
			box = geom.Rect{Xlo: pt.X, Ylo: pt.Y, Xhi: pt.X, Yhi: pt.Y}
			found = true
			return
		}
		if pt.X < box.Xlo {
			box.Xlo = pt.X
		}
		if pt.Y < box.Ylo {
			box.Ylo = pt.Y
		}
		if pt.X > box.Xhi {
			box.Xhi = pt.X
		}
		if pt.Y > box.Yhi {
			box.Yhi = pt.Y
		}
	}
	if pt, ok := p.pinPoint(n.Driver); ok {
		include(pt)
	}
	for _, l := range n.Loads {
		if pt, ok := p.pinPoint(l); ok {
			include(pt)
		}
	}
	return box
}

// HPWL returns the half-perimeter wirelength of the net in um.
func (p *Placement) HPWL(n *netlist.Net) float64 { return p.NetBBox(n).HalfPerimeter() }

// TotalHPWL returns the summed half-perimeter wirelength of all nets.
func (p *Placement) TotalHPWL() float64 {
	total := 0.0
	for _, n := range p.Design.Nets() {
		total += p.HPWL(n)
	}
	return total
}

// PlacedArea returns the total placed non-filler cell area in um^2.
func (p *Placement) PlacedArea() float64 {
	total := 0.0
	for ord, inst := range p.insts {
		if p.placed[ord] && !inst.IsFiller() {
			total += inst.Master.Area(p.FP.RowHeight)
		}
	}
	return total
}

// Utilization returns placed cell area divided by core area, the paper's
// utilization-factor definition.
func (p *Placement) Utilization() float64 { return p.PlacedArea() / p.FP.CoreArea() }

// InstancesInRect returns the placed non-filler instances whose centres lie
// inside r, in design creation order.
func (p *Placement) InstancesInRect(r geom.Rect) []*netlist.Instance {
	if p.misalignedCount > 0 {
		return p.instancesInRectScan(r)
	}
	// Every placed cell sits on its row (centre Y = row Y + rowHeight/2), so
	// only rows whose centre line can fall inside r need scanning. The range
	// is padded by one row to absorb the sub-half-row Y tolerance rowAligned
	// allows; the exact per-cell containment check below decides membership.
	fp := p.FP
	rh := fp.RowHeight
	lo := int(math.Floor((r.Ylo-fp.Core.Ylo-rh/2)/rh)) - 1
	hi := int(math.Ceil((r.Yhi-fp.Core.Ylo-rh/2)/rh)) + 1
	if lo < 0 {
		lo = 0
	}
	if hi >= len(p.rowOcc) {
		hi = len(p.rowOcc) - 1
	}
	var ords []int32
	for row := lo; row <= hi; row++ {
		for _, ord := range p.rowOcc[row] {
			inst := p.insts[ord]
			if inst.IsFiller() {
				continue
			}
			if r.Contains(p.Center(inst)) {
				ords = append(ords, ord)
			}
		}
	}
	sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
	out := make([]*netlist.Instance, len(ords))
	for i, ord := range ords {
		out[i] = p.insts[ord]
	}
	return out
}

// instancesInRectScan is the exact fallback used while any placed cell's Y
// is inconsistent with its row index.
func (p *Placement) instancesInRectScan(r geom.Rect) []*netlist.Instance {
	var out []*netlist.Instance
	for ord, inst := range p.insts {
		if inst.IsFiller() || !p.placed[ord] {
			continue
		}
		if r.Contains(p.Center(inst)) {
			out = append(out, inst)
		}
	}
	return out
}

// rowOccupants returns placed instances in the given row sorted by x (name
// breaking ties). The returned slice is a copy: callers may reorder it while
// re-placing cells without corrupting the underlying occupancy index.
func (p *Placement) rowOccupants(row int) []*netlist.Instance {
	if row < 0 || row >= len(p.rowOcc) {
		return nil
	}
	bucket := p.rowOcc[row]
	if len(bucket) == 0 {
		return nil
	}
	out := make([]*netlist.Instance, len(bucket))
	for i, ord := range bucket {
		out[i] = p.insts[ord]
	}
	return out
}

// Validate checks the placement for physical legality: every non-filler
// instance placed, inside the core, aligned to rows and sites, and with no
// overlaps within a row. It returns all violations found (possibly empty).
func (p *Placement) Validate() []error {
	var errs []error
	fp := p.FP
	eps := 1e-6
	for _, inst := range p.Design.Instances() {
		if inst.IsFiller() {
			continue
		}
		l, ok := p.Loc(inst)
		if !ok {
			errs = append(errs, fmt.Errorf("place: instance %q not placed", inst.Name))
			continue
		}
		r, _ := p.CellRect(inst)
		if r.Xlo < fp.Core.Xlo-eps || r.Xhi > fp.Core.Xhi+eps || r.Ylo < fp.Core.Ylo-eps || r.Yhi > fp.Core.Yhi+eps {
			errs = append(errs, fmt.Errorf("place: instance %q outside core: %v", inst.Name, r))
		}
		if l.Row < 0 || l.Row >= fp.NumRows() {
			errs = append(errs, fmt.Errorf("place: instance %q in invalid row %d", inst.Name, l.Row))
			continue
		}
		if rowY := fp.Rows[l.Row].Y; math.Abs(l.Y-rowY) > eps {
			errs = append(errs, fmt.Errorf("place: instance %q y=%g not aligned to row %d (y=%g)", inst.Name, l.Y, l.Row, rowY))
		}
		if site := fp.SiteWidth; math.Abs(math.Mod(l.X-fp.Core.Xlo, site)) > eps && math.Abs(math.Mod(l.X-fp.Core.Xlo, site)-site) > eps {
			errs = append(errs, fmt.Errorf("place: instance %q x=%g not aligned to site grid", inst.Name, l.X))
		}
	}
	// Overlap check per row, straight off the sorted occupancy lists.
	for row := 0; row < fp.NumRows() && row < len(p.rowOcc); row++ {
		bucket := p.rowOcc[row]
		for i := 1; i < len(bucket); i++ {
			prev, cur := p.insts[bucket[i-1]], p.insts[bucket[i]]
			prevEnd := p.locs[bucket[i-1]].X + prev.Master.Width
			if p.locs[bucket[i]].X < prevEnd-eps {
				errs = append(errs, fmt.Errorf("place: overlap in row %d between %q and %q", row, prev.Name, cur.Name))
			}
		}
	}
	return errs
}
