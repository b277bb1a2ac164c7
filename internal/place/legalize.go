package place

import (
	"sort"

	"thermplace/internal/netlist"
)

// Legalize turns a placement whose rows may overlap, overflow or sit off
// the site grid into a legal one while moving cells as little as possible.
// Every placed cell is already on a row (SetLoc); Legalize keeps it there
// unless its row overflows:
//
//  1. rows whose contents exceed their capacity spill the cell farthest
//     from the row centre into the nearest row with free space (the
//     cheapest eviction: it never disturbs the packed middle, and overflow
//     near either row edge is resolved locally instead of travelling across
//     the row),
//  2. within every row, cells keep their left-to-right order and are shifted
//     just enough to remove overlaps and stay inside the row, snapped to the
//     site grid.
//
// Row occupancy widths are tracked incrementally across the spill pass, so
// legalization never re-sums or re-sorts a row per eviction.
//
// This is a simplified Tetris/Abacus-style legalizer: adequate for the
// post-placement transforms, which only perturb cells locally.
func Legalize(p *Placement) {
	fp := p.FP
	// Per-row widths, accumulated in design order: the capacity comparisons
	// below are float sums, and a different addition order could flip a
	// marginal spill decision.
	rowUsed := make([]float64, fp.NumRows())
	for ord, inst := range p.insts {
		if p.placed[ord] {
			rowUsed[p.locs[ord].Row] += inst.Master.Width
		}
	}
	// The row lists come straight off the occupancy index SetLoc maintains:
	// each bucket is already sorted by (X, name), exactly the order the
	// per-row sort used to produce.
	rowCells := make([][]*netlist.Instance, fp.NumRows())
	for row := range rowCells {
		rowCells[row] = p.rowOccupants(row)
	}

	// Pass 1: spill overfull rows into the nearest rows with space. Rows
	// are already sorted; the farthest-from-centre candidate is then always
	// at one of the two ends of the remaining span.
	for row := 0; row < fp.NumRows(); row++ {
		capacity := fp.Rows[row].Width()
		if rowUsed[row] <= capacity || len(rowCells[row]) == 0 {
			continue
		}
		cells := rowCells[row]
		centre := (fp.Rows[row].X0 + fp.Rows[row].X1) / 2
		lo, hi := 0, len(cells)-1
		for rowUsed[row] > capacity && lo <= hi {
			victim := cells[hi]
			fromLeft := false
			if distFromCentre(p, cells[lo], centre) > distFromCentre(p, cells[hi], centre) {
				victim = cells[lo]
				fromLeft = true
			}
			target := findRowWithSpace(p, rowUsed, row, victim.Master.Width)
			if target < 0 {
				// No space anywhere: keep the cell in place; Validate will
				// flag the overflow for the caller.
				break
			}
			l, _ := p.Loc(victim)
			l.Row = target
			p.SetLoc(victim, l)
			rowCells[target] = append(rowCells[target], victim)
			rowUsed[target] += victim.Master.Width
			rowUsed[row] -= victim.Master.Width
			if fromLeft {
				lo++
			} else {
				hi--
			}
		}
		rowCells[row] = cells[lo : hi+1]
	}

	// Pass 2: remove overlaps within each row with a two-sided sweep.
	for row := 0; row < fp.NumRows(); row++ {
		packRow(p, rowCells[row], fp.Rows[row].X0, fp.Rows[row].X1)
	}
}

// distFromCentre returns the horizontal distance of the cell's centre from
// the row centre.
func distFromCentre(p *Placement, inst *netlist.Instance, centre float64) float64 {
	l, _ := p.Loc(inst)
	d := l.X + inst.Master.Width/2 - centre
	if d < 0 {
		return -d
	}
	return d
}

// sortCellsByX orders the cells by x position, breaking ties by name so the
// order (and everything downstream of it) is deterministic. Already-sorted
// input (the common case: row lists come pre-sorted off the occupancy
// index, and only spill targets gain out-of-place cells) is detected in one
// pass and left alone.
func sortCellsByX(p *Placement, cells []*netlist.Instance) {
	if cellsSortedByX(p, cells) {
		return
	}
	sort.Slice(cells, func(i, j int) bool {
		li, _ := p.Loc(cells[i])
		lj, _ := p.Loc(cells[j])
		if li.X != lj.X {
			return li.X < lj.X
		}
		return cells[i].Name < cells[j].Name
	})
}

func cellsSortedByX(p *Placement, cells []*netlist.Instance) bool {
	for i := 1; i < len(cells); i++ {
		li, _ := p.Loc(cells[i-1])
		lj, _ := p.Loc(cells[i])
		if li.X > lj.X || (li.X == lj.X && cells[i-1].Name > cells[i].Name) {
			return false
		}
	}
	return true
}

// rowOccupants copies the row's occupancy bucket as instances.
func (p *Placement) rowOccupants(row int) []*netlist.Instance {
	bucket := p.rowBucket(row)
	if len(bucket) == 0 {
		return nil
	}
	out := make([]*netlist.Instance, len(bucket))
	for i, ord := range bucket {
		out[i] = p.insts[ord]
	}
	return out
}

// findRowWithSpace returns the row index nearest to from that can absorb an
// extra cell of the given width according to the tracked row widths, or -1
// when none exists.
func findRowWithSpace(p *Placement, rowUsed []float64, from int, width float64) int {
	fp := p.FP
	for d := 1; d < fp.NumRows(); d++ {
		for _, row := range []int{from - d, from + d} {
			if row < 0 || row >= fp.NumRows() {
				continue
			}
			if rowUsed[row]+width <= fp.Rows[row].Width() {
				return row
			}
		}
	}
	return -1
}

// packRow removes overlaps between the cells of one row while keeping their
// left-to-right order, clamping everything into [x0, x1] and snapping to the
// site grid.
func packRow(p *Placement, cells []*netlist.Instance, x0, x1 float64) {
	if len(cells) == 0 {
		return
	}
	fp := p.FP
	sortCellsByX(p, cells)
	// Left-to-right sweep: push cells right so they do not overlap.
	prevEnd := x0
	for _, c := range cells {
		l, _ := p.Loc(c)
		x := l.X
		if x < prevEnd {
			x = prevEnd
		}
		x = snapDown(x-fp.Core.Xlo, fp.SiteWidth) + fp.Core.Xlo
		if x < prevEnd-1e-9 {
			x += fp.SiteWidth
		}
		l.X = x
		p.SetLoc(c, l)
		prevEnd = x + c.Master.Width
	}
	// If the row overflowed on the right, re-pack the row contiguously so
	// that it ends at x1 (or starts at x0 when even a contiguous packing is
	// tight), preserving cell order. Positions stay site-aligned because all
	// cell widths are site multiples.
	last := cells[len(cells)-1]
	lLast, _ := p.Loc(last)
	if lLast.X+last.Master.Width > x1+1e-9 {
		totalWidth := 0.0
		for _, c := range cells {
			totalWidth += c.Master.Width
		}
		start := snapDown(x1-totalWidth-fp.Core.Xlo, fp.SiteWidth) + fp.Core.Xlo
		if start < x0 {
			start = x0
		}
		x := start
		for _, c := range cells {
			l, _ := p.Loc(c)
			l.X = x
			p.SetLoc(c, l)
			x += c.Master.Width
		}
	}
}
